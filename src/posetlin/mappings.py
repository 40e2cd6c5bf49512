"""Extensional n-ary mappings between posets and their extension to classes.

A mapping is stored as a complete table so monotonicity can be decided on
cover steps and the class-level extension evaluated exactly.  Extending a
table over two linearisations collapses each argument class to a single
class-valued output: mode "over" keeps the greatest projected value of the
table across the class product, mode "under" the least, as one flat tuple of
codomain ranks, which its checks compare as integers; ``table`` views it by level.
"""

from collections import namedtuple
from itertools import islice, product
from types import MappingProxyType

from .errors import (
    ArityMismatchError,
    LinearLatticeError,
    MissingTupleError,
    MixedArityError,
    NotALatticeError,
    PosetMismatchError,
    RanksNotOrderPreservingError,
    TooLargeError,
    UnknownElementError,
)
from .levels import PRIMAL
from .poset import _indices

MODE_OVER = "over"
MODE_UNDER = "under"
MODES = (MODE_OVER, MODE_UNDER)
MAX_TABLE_ENTRIES = 10**6


def _cover_pairs(values, n, arity, covers):
    """Distinct ``(values[xs], values[ys])`` over the cover steps ``xs -> ys``.

    ``values`` holds one value per tuple over ``range(n)``, in mixed radix
    with the first argument most significant; ``covers`` lists ``(x, ys)``
    with ``ys`` the upper covers of ``x``.  A cover step raises one argument
    to an upper cover, and every ``xs <= ys`` is a chain of them.  Per axis,
    the slots with digit ``x`` and with digit ``y`` come as whole slices (one
    extended slice per offset below the stride, or one plain slice per
    block, whichever is fewer), O(entries · covers / n) list work per axis; with
    c distinct values the set holds at most c² pairs, whatever the table's size.
    """
    total = len(values)
    pairs = set()
    for axis in range(arity):
        stride = n ** (arity - 1 - axis)
        block = stride * n
        if stride * block <= total:
            runs = [(j, total, block) for j in range(stride)]
        else:
            runs = [(b, stride, 1) for b in range(0, total, block)]
        for start, span, step in runs:
            for x, ys in covers:
                lo = start + x * stride
                below = values[lo : lo + span : step]
                for y in ys:
                    hi = start + y * stride
                    pairs.update(zip(below, values[hi : hi + span : step]))
    return pairs


def _check_size(n, arity):
    """Raise ``TooLargeError`` iff ``n ** arity > MAX_TABLE_ENTRIES``.  Clipping the
    exponent at the cap's bit length is exact: past it, every ``n >= 2`` is over."""
    if n ** min(arity, MAX_TABLE_ENTRIES.bit_length()) > MAX_TABLE_ENTRIES:
        raise TooLargeError(
            f"mapping table of arity {arity} over {n} domain elements "
            f"exceeds the cap of {MAX_TABLE_ENTRIES} entries"
        )


class MappingTable:
    """Total n-ary mapping between two finite posets, stored extensionally.

    ``table`` must define an output for every tuple in ``domain ** arity``;
    construction raises ``MissingTupleError`` otherwise, and ``TooLargeError``
    when that product has more than ``MAX_TABLE_ENTRIES`` tuples.  The
    outputs are kept as one flat list of codomain positions, one slot per
    tuple in the order of ``product(domain.elements, repeat=arity)``.
    """

    __slots__ = ("domain", "arity", "codomain", "_values", "_pairs")

    def __init__(self, domain, arity, codomain, table, *, _values=None):
        if arity < 1:
            raise ValueError(f"arity must be at least 1, got {arity}")
        n = len(domain)
        _check_size(n, arity)
        values = _values  # parse_mapping fills the flat list itself; ``table`` is then unread
        if values is None:
            pos, cpos = domain._pos, codomain._pos
            values = [None] * n**arity
            for key, value in table.items():
                key = tuple(key)
                if len(key) != arity:
                    raise ArityMismatchError(
                        f"tuple {key!r} has {len(key)} components, expected {arity}"
                    )
                slot = 0
                for x in key:
                    if x not in pos:
                        raise UnknownElementError(f"unknown domain element {x!r}")
                    slot = slot * n + pos[x]
                if value not in cpos:
                    raise UnknownElementError(f"unknown codomain element {value!r}")
                values[slot] = cpos[value]
        if None in values:
            keys = product(domain.elements, repeat=arity)
            key = next(islice(keys, values.index(None), None))
            raise MissingTupleError(f"mapping undefined for tuple ({', '.join(key)})")
        self.domain = domain
        self.arity = arity
        self.codomain = codomain
        self._values = values
        self._pairs = None  # cover-step value pairs, from the first check; a race fills equal ones

    @property
    def table(self):
        """Read-only view built on each access, argument tuples in declaration
        product order; a ``MappingTable`` of its ``dict`` equals this one."""
        keys = product(self.domain.elements, repeat=self.arity)
        outputs = map(self.codomain.elements.__getitem__, self._values)
        return MappingProxyType(dict(zip(keys, outputs)))

    def __call__(self, *xs):
        if len(xs) != self.arity:
            raise KeyError(xs)
        pos, slot = self.domain._pos, 0
        for x in xs:
            slot = slot * len(pos) + pos[x]  # KeyError for an unknown element
        return self.codomain.elements[self._values[slot]]

    def __eq__(self, other):
        if not isinstance(other, MappingTable):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.arity == other.arity
            and self.codomain == other.codomain
            and self._values == other._values
        )

    def __repr__(self):
        return f"MappingTable(arity={self.arity}, {len(self._values)} entries)"

    def _check(self, ok):
        """True iff each cover-step value pair ``(u, v)`` has ``u == v`` or bit ``v`` of ``ok[u]``."""
        if self._pairs is None:
            covers = [(x, list(_indices(c))) for x, c in enumerate(self.domain._closure()[1]) if c]
            self._pairs = _cover_pairs(self._values, len(self.domain), self.arity, covers)
        return all(u == v or ok[u] >> v & 1 for u, v in self._pairs)

    def is_monotone(self):
        """True iff pointwise greater arguments never map to a smaller value."""
        return self._check(self.codomain._closure()[0])

    def is_antitone(self):
        """True iff pointwise greater arguments never map to a greater value."""
        return self._check(self.codomain._dual()._closure()[0])


class ClassMapping(namedtuple("ClassMapping", "domain_lin codomain_lin arity mode ranks")):
    """A mapping between the classes of two linearisations.

    ``ranks`` holds the codomain rank (0 = least class) at each tuple of domain
    ranks, first argument most significant.  ``table`` (built on access) and
    ``cm(*level_indices)`` (in O(arity)) read it by level indices.  A primal
    level is m - 1 minus its rank, so level slot s is ``ranks[m**arity - 1 - s]``.
    Monotonicity is judged on ranks, the ascending linear order of each side.
    """

    __slots__ = ()

    @property
    def table(self):
        """Read-only view by level indices, keys in product order."""
        keys = product(range(self.domain_lin.num_classes), repeat=self.arity)
        ranks = reversed(self.ranks) if self.domain_lin.direction == PRIMAL else self.ranks
        return MappingProxyType(dict(zip(keys, map(self.codomain_lin.rank, ranks))))

    def __call__(self, *level_indices):
        m, slot = self.domain_lin.num_classes, 0
        if len(level_indices) != self.arity or not all(
                isinstance(i, int) and i in range(m) for i in level_indices):
            raise KeyError(level_indices)  # only ints in range(m) index; ``rank`` raises ValueError
        for i in level_indices:
            slot = slot * m + i
        backwards = self.domain_lin.direction == PRIMAL  # ranks[~slot] is ranks[m**arity-1-slot]
        return self.codomain_lin.rank(self.ranks[~slot if backwards else slot])

    def _report(self):
        """``(is_monotone(), is_antitone())`` from one set of cover-step pairs."""
        m = self.domain_lin.num_classes
        # both sides are chains of ranks: r + 1 covers r, and ranks compare as integers
        pairs = _cover_pairs(self.ranks, m, self.arity, [(r, (r + 1,)) for r in range(m - 1)])
        return all(u <= v for u, v in pairs), all(u >= v for u, v in pairs)

    def is_monotone(self):
        return self._report()[0]

    def is_antitone(self):
        return self._report()[1]


def extend(table, domain_lin, codomain_lin, mode):
    """Extend a mapping table to classes of the given linearisations.

    For each tuple of domain classes the table is evaluated on every member
    tuple of the class product; the outputs are projected to codomain classes
    and the greatest (mode "over") or least (mode "under") one in the
    codomain's linear order is kept.  The codomain order is linear, so the
    choice is unambiguous.  One pass over the table does this: each slot's
    tuple of domain ranks, read in mixed radix, numbers the class slot that
    keeps the best codomain rank seen.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if domain_lin.source != table.domain:
        raise PosetMismatchError("domain linearisation built from a different poset")
    if codomain_lin.source != table.codomain:
        raise PosetMismatchError("codomain linearisation built from a different poset")
    m, arity = domain_lin.num_classes, table.arity
    classes = list(map(domain_lin.rank, domain_lin.layer))
    class_slots = [0]
    for _ in range(arity):
        class_slots = [c * m + d for c in class_slots for d in classes]
    # "under" keeps the greatest negated rank; every signed rank beats -num_classes
    sign = 1 if mode == MODE_OVER else -1
    signed = [sign * r for r in map(codomain_lin.rank, codomain_lin.layer)]
    best = [-codomain_lin.num_classes] * m**arity
    for c, r in zip(class_slots, map(signed.__getitem__, table._values)):
        if r > best[c]:
            best[c] = r
    return ClassMapping(domain_lin, codomain_lin, arity, mode, tuple([sign * r for r in best]))


def extend_all(tables, domain_lin, codomain_lin, mode):
    """Componentwise extension of several tables sharing domain, arity, codomain.

    The resulting vector mapping is monotone (antitone) exactly when every
    component is.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one mapping table")
    first = tables[0]
    for t in tables[1:]:
        if t.arity != first.arity:
            raise MixedArityError(f"components have arities {first.arity} and {t.arity}")
        if t.domain != first.domain or t.codomain != first.codomain:
            raise PosetMismatchError("components disagree on domain or codomain")
    return [extend(t, domain_lin, codomain_lin, mode) for t in tables]


class ImpossibilityWitness(
    namedtuple("ImpossibilityWitness", "pair case witness_map ranks violation")
):
    """Evidence that a rank function cannot support homomorphic extension.

    ``pair`` is an incomparable pair (a, b) ordered so rank(a) <= rank(b).
    In the "collapsed" case (equal ranks) the recorded monotone map has
    images of a and b with different ranks, so a homomorphic extension is
    ill-defined; in the "ordered" case the map swaps a and b, so the
    extension reverses the strict rank order.
    """

    __slots__ = ()

    def recheck(self):
        """Re-verify the recorded violation from scratch."""
        a, b = self.pair
        if not self.witness_map.is_monotone():
            return False
        ra, rb = self.ranks[a], self.ranks[b]
        fa = self.ranks[self.witness_map(a)]
        fb = self.ranks[self.witness_map(b)]
        if self.case == "collapsed":
            return ra == rb and fa != fb
        return ra < rb and fa > fb


def impossibility_witness(lattice, ranks):
    """Build a witness against rank-based linearisation of a non-linear lattice.

    ``ranks`` must assign an integer to every element and preserve the strict
    order.  Picks the first incomparable pair in declaration order and returns
    a monotone unary map on the lattice whose behaviour under ``ranks``
    contradicts either well-definedness (equal ranks) or monotonicity
    (distinct ranks) of the induced class mapping.
    """
    for name in ranks:
        if name not in lattice:
            raise UnknownElementError(f"rank given for unknown element {name!r}")
    for x in lattice.elements:
        if x not in ranks:
            raise UnknownElementError(f"no rank given for element {x!r}")
    if not lattice.is_lattice():
        raise NotALatticeError("witness construction needs a lattice")
    for x, y in lattice._pairs(lattice._closure()[0]):  # declaration order: the same pair every run
        if not ranks[x] < ranks[y]:
            raise RanksNotOrderPreservingError(
                f"{x!r} < {y!r} but rank({x}) = {ranks[x]} >= rank({y}) = {ranks[y]}"
            )
    names = lattice.elements
    pair = next(((x, y) for i, x in enumerate(names) for y in names[i + 1 :]
                 if lattice.incomparable(x, y)), None)
    if pair is None:
        raise LinearLatticeError("the lattice is linear, nothing to witness")
    a, b = pair if ranks[pair[0]] <= ranks[pair[1]] else (pair[1], pair[0])
    if ranks[a] == ranks[b]:
        case = "collapsed"
        table = {(x,): lattice.sup(x, a) for x in lattice.elements}
        fa, fb = table[(a,)], table[(b,)]
        violation = (
            f"rank({a}) = rank({b}) = {ranks[a]}, yet for f(x) = sup(x, {a}) "
            f"rank(f({a})) = {ranks[fa]} differs from rank(f({b})) = {ranks[fb]}: "
            f"the induced class mapping is ill-defined"
        )
    else:
        case = "ordered"
        image = {(True, True): lattice.sup(a, b), (True, False): b, (False, True): a,
                 (False, False): lattice.minimal_elements()[0]}
        table = {(x,): image[lattice.leq(a, x), lattice.leq(b, x)] for x in lattice.elements}
        violation = (
            f"rank({a}) = {ranks[a]} < rank({b}) = {ranks[b]}, yet the monotone "
            f"map with f({a}) = {b} and f({b}) = {a} gives "
            f"rank(f({a})) = {ranks[b]} > rank(f({b})) = {ranks[a]}: "
            f"the induced class mapping is not monotone"
        )
    witness = ImpossibilityWitness(
        (a, b), case, MappingTable(lattice, 1, lattice, table), dict(ranks), violation
    )
    if not witness.recheck():
        raise RuntimeError("internal error: witness failed its own re-verification")
    return witness
