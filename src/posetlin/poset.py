"""Finite posets with a validated strict order and its cover relation.

Elements are numbered 0..n-1 in declaration order (``parse_poset`` numbers them
as it reads).  A poset keeps its generating pairs as successor and predecessor
lists, in one topological order; levels, the longest chain, chain-ness and the
extremal elements read them in O(n + pairs) steps and no bitsets.  The first
upward order query adds the closure, two lists of ``int`` bitsets: bit ``j`` of
``up[i]`` is set iff ``i`` is strictly below ``j``, and ``cover_up`` holds the
upper covers (the transitive reduction).  Every downward query asks the dual
poset, built on first use over the same elements with the generating lists
swapped, whose upward half is this poset's downward one.  So ``levels`` and
``equiv`` build no closure, ``elcc`` the upper half, ``check`` that half and,
with one maximal and one minimal element, the dual's, and a table check the
domain's upper half with the codomain's (``is_monotone``) or its dual's
(``is_antitone``).  Order queries are bit tests; sets of names are built only at
the API edge, on each call.  Every derived listing follows declaration order.
"""

from .errors import (
    ArityMismatchError,
    CycleError,
    DuplicateElementError,
    NotALatticeError,
    UnknownElementError,
)


def _indices(bits):
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _closure_and_covers(order, succ):
    """Strict up-sets and upper covers in one backward walk of ``order``, O(n + pairs)
    big-integer operations.  ``succ[i]`` lists the generating successors of ``i``, all
    after it in ``order``; one of them covers ``i`` iff no successor's up-set holds
    it (Aho, Garey & Ullman, "The transitive reduction of a directed graph").
    """
    up, cover = [0] * len(succ), [0] * len(succ)
    for i in reversed(order):
        adj = reach = 0
        for j in succ[i]:
            adj |= 1 << j
            reach |= up[j]
        up[i] = adj | reach
        cover[i] = adj & ~reach
    return up, cover


def _on_cycle(i, succ):
    """True iff element ``i`` reaches itself along ``succ``."""
    seen, stack = set(), list(succ[i])
    while stack:
        j = stack.pop()
        if j == i:
            return True
        if j not in seen:
            seen.add(j)
            stack.extend(succ[j])
    return False


def build_poset(elements, pairs, *, _resolved=None):
    """Construct a poset from declared elements and any generating set of its
    strict pairs: the order is their transitive closure, the cover relation its
    transitive reduction.  Raises ``ValueError`` on a bad name, then
    ``DuplicateElementError``, ``UnknownElementError``, or ``CycleError``
    naming the first declared element on a cycle; one Kahn topological sort
    checks the pairs.

    Package-internal: ``_resolved=(names, pos, succ, pred)`` stands in, unchecked, for
    ``elements`` and ``pairs``: valid distinct names, ``pos[names[i]] == i``, the lists.
    """
    if _resolved is None:
        names = list(elements)
        pos = {}
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"element name must be a non-empty string, got {name!r}")
            if name.split() != [name] or "<" in name or "#" in name:  # split() breaks at isspace()
                raise ValueError(f"element name may not contain whitespace, '<' or '#': {name!r}")
            if name in pos:
                raise DuplicateElementError(f"duplicate element {name!r}")
            pos[name] = len(pos)
        succ, pred = [[] for _ in names], [[] for _ in names]
        for x, y in pairs:
            try:
                i, j = pos[x], pos[y]
            except KeyError:
                raise UnknownElementError(
                    f"unknown element {y if x in pos else x!r} in pair ({x!r}, {y!r})") from None
            succ[i].append(j)
            pred[j].append(i)
    else:
        names, pos, succ, pred = _resolved
    # Kahn's sort: an element is emitted once all its predecessors are
    indegree = list(map(len, pred))
    order = [i for i, d in enumerate(indegree) if not d]
    for i in order:
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < len(names):
        # the elements left unsorted lie on a cycle or downstream of one
        name = next(x for i, x in enumerate(names) if indegree[i] and _on_cycle(i, succ))
        raise CycleError(f"declared pairs create an order cycle through {name!r}")
    return Poset(names, pos, order, succ, pred)


class Poset:
    """Immutable finite poset.  Use :func:`build_poset` to construct one."""

    __slots__ = ("elements", "_pos", "_order", "_succ", "_pred", "_bits", "_mirror")

    def __init__(self, names, pos, order, succ, pred):
        self.elements = tuple(names)
        self._pos, self._order, self._succ, self._pred = pos, order, succ, pred
        self._bits = self._mirror = None

    def _closure(self):
        """``(up, cover_up)``, built on the first call; threads that race build equal ones."""
        if self._bits is None:
            self._bits = _closure_and_covers(self._order, self._succ)
        return self._bits

    def _dual(self):
        """The same elements in the reverse order, built on the first call.
        It keeps no reference back, so a poset and its dual form no cycle."""
        if self._mirror is None:
            self._mirror = Poset(self.elements, self._pos, self._order[::-1], self._pred, self._succ)
        return self._mirror

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, name):
        return name in self._pos

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self is other or (
            self.elements == other.elements and self._closure()[0] == other._closure()[0]
        )

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {self._pair_counts()[0]} strict pairs)"

    def position(self, x):
        """Declaration index of ``x``."""
        try:
            return self._pos[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None

    def _pair_counts(self):
        """Numbers of strict pairs and of cover pairs, package-internal."""
        return tuple(sum(map(int.bit_count, rows)) for rows in self._closure())

    def _layers(self):
        """Package-internal: ``layer[i]`` counts the cover steps of the longest
        walk from element ``i`` up to a maximal element.  Every cover is a
        generating pair and every pair a chain of covers, so pushing each
        element's layer plus one along its predecessor list, in reverse
        topological order, finds the same walks, in O(n + pairs) steps and with
        no closure: every successor comes first, so a layer is final when read."""
        pred = self._pred
        layer = [0] * len(pred)
        for i in reversed(self._order):
            step = layer[i] + 1
            for j in pred[i]:
                if layer[j] < step:
                    layer[j] = step
        return layer

    def _pairs(self, rows):
        """``(x, y)`` for each bit ``y`` of row ``x`` in ``rows``, in declaration order."""
        names = self.elements
        return ((x, names[j]) for x, bits in zip(names, rows) for j in _indices(bits))

    @property
    def strict_pairs(self):
        """All pairs (x, y) with x < y, as a frozenset."""
        return frozenset(self._pairs(self._closure()[0]))

    @property
    def cover_pairs(self):
        """All pairs (x, y) with y covering x, as a frozenset."""
        return frozenset(self._pairs(self._closure()[1]))

    def _names(self, rows, x):
        """The names of the set bits of ``x``'s row in ``rows``, as a frozenset."""
        return frozenset(map(self.elements.__getitem__, _indices(rows[self.position(x)])))

    def above(self, x):
        """Elements strictly greater than ``x``."""
        return self._names(self._closure()[0], x)

    def below(self, x):
        """Elements strictly smaller than ``x``."""
        return self._dual().above(x)

    def covers_above(self, x):
        return self._names(self._closure()[1], x)

    def covers_below(self, x):
        return self._dual().covers_above(x)

    def lt(self, x, y):
        i, j = self.position(x), self.position(y)
        return self._closure()[0][i] >> j & 1 == 1

    def leq(self, x, y):
        i, j = self.position(x), self.position(y)
        return i == j or self._closure()[0][i] >> j & 1 == 1

    def incomparable(self, x, y):
        i, j = self.position(x), self.position(y)
        up = self._closure()[0]
        return i != j and (up[i] >> j | up[j] >> i) & 1 == 0

    def is_linear(self):
        """True iff all elements are pairwise comparable, iff each generates the next in
        topological order: a chain's neighbours are covers, and covers are generating pairs."""
        return all(j in self._succ[i] for i, j in zip(self._order, self._order[1:]))

    def maximal_elements(self):
        """Elements with no strict upper bound: those that start no generating pair."""
        # from a list: a tuple of a generator raised the peak RSS of a run of `check` requests
        return tuple([x for x, succ in zip(self.elements, self._succ) if not succ])

    def minimal_elements(self):
        return self._dual().maximal_elements()

    def longest_chain_length(self):
        """Maximum number of elements in a chain, via longest-path DP on the generating pairs."""
        if not self.elements:
            return 0
        return 1 + max(self._layers())

    def _bound(self, x, y, what):
        """The least upper bound of ``x`` and ``y``: the element whose reflexive
        up-set is the intersection of theirs.  ``NotALatticeError`` names
        ``what`` if no element has that set."""
        i, j = self.position(x), self.position(y)
        up = self._closure()[0]
        common = (up[i] | 1 << i) & (up[j] | 1 << j)
        for k in _indices(common):
            if up[k] | 1 << k == common:
                return self.elements[k]
        raise NotALatticeError(f"no {what} for {x!r} and {y!r}")

    def is_lattice(self):
        """True iff every pair of elements has a least upper and greatest lower bound.

        More than one maximal or minimal element rules it out before any closure is built.
        Otherwise only meets are searched, as a finite poset with a top in which every pair
        has a meet is a lattice (Davey & Priestley); a row with no incomparable element
        declared after it is skipped: O(n) masks on a chain, O(n²) on a wide poset (a grid).
        """
        if len(self.maximal_elements()) > 1 or len(self.minimal_elements()) > 1:
            return False  # no join or no meet
        up, down = self._closure()[0], self._dual()._closure()[0]
        full = (1 << len(up)) - 1
        reflexive = [s | 1 << i for i, s in enumerate(down)]
        owned = set(reflexive)
        return all(
            not (full & ~(up[i] | a)) >> (i + 1) or {a & b for b in reflexive[i + 1 :]} <= owned
            for i, a in enumerate(reflexive)
        )

    def sup(self, x, y):
        """Least upper bound of ``{x, y}``; raises ``NotALatticeError`` if absent."""
        return self._bound(x, y, "least upper bound")

    def inf(self, x, y):
        """Greatest lower bound of ``{x, y}``; raises ``NotALatticeError`` if absent."""
        return self._dual()._bound(x, y, "greatest lower bound")  # not sup(): profiled as inf

    def tuple_leq(self, xs, ys):
        """Componentwise order on same-length tuples of elements."""
        xs, ys = tuple(xs), tuple(ys)
        if len(xs) != len(ys):
            raise ArityMismatchError(f"tuples have different lengths: {len(xs)} and {len(ys)}")
        return all(self.leq(x, y) for x, y in zip(xs, ys))
