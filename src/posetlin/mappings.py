"""Extensional n-ary mappings between posets and their extension to classes.

A mapping is stored as a complete table so monotonicity can be decided on
cover steps and the class-level extension evaluated exactly.  Extending a
table over two linearisations collapses each argument class to a single
class-valued output: mode "over" keeps the greatest projected value of the
table across the class product, mode "under" the least.
"""

from collections import namedtuple
from itertools import product

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

MODE_OVER = "over"
MODE_UNDER = "under"
MODES = (MODE_OVER, MODE_UNDER)
MAX_TABLE_ENTRIES = 10**6


def _preserves(table, covers, ok):
    """True iff ``ok(table[xs], table[ys])`` holds for every ``xs <= ys``.

    ``table`` must be total over the product of its argument order, and
    ``covers[x]`` lists the upper covers of ``x`` in that order.  Only cover
    steps are checked, where ``ys`` raises one coordinate of ``xs`` to one of
    its covers: every ``xs <= ys`` is a chain of such steps and ``ok`` is
    transitive, so this decides the whole product order in
    O(entries * arity * covers) instead of O(entries ** 2).
    """
    for xs, value in table.items():
        for i, x in enumerate(xs):
            for y in covers[x]:
                if not ok(value, table[xs[:i] + (y,) + xs[i + 1 :]]):
                    return False
    return True


def _rank_lookup(lin):
    """``lin.rank`` as a list lookup: one method call per class, not per entry."""
    return list(map(lin.rank, range(lin.num_classes))).__getitem__


def _exceeds(base, exponent, bound):
    """True iff ``base ** exponent > bound``, without forming a power beyond ``bound``."""
    if base < 2:
        return base > bound
    power = 1
    for _ in range(exponent):
        power *= base
        if power > bound:
            return True
    return False


class MappingTable:
    """Total n-ary mapping between two finite posets, stored extensionally.

    ``table`` must define an output for every tuple in ``domain ** arity``;
    construction raises ``MissingTupleError`` otherwise, and ``TooLargeError``
    when that product has more than ``MAX_TABLE_ENTRIES`` tuples.
    """

    __slots__ = ("domain", "arity", "codomain", "table")

    def __init__(self, domain, arity, codomain, table):
        if arity < 1:
            raise ValueError(f"arity must be at least 1, got {arity}")
        n = len(domain)
        if _exceeds(n, arity, MAX_TABLE_ENTRIES):
            raise TooLargeError(
                f"mapping table of arity {arity} over {n} domain elements "
                f"exceeds the cap of {MAX_TABLE_ENTRIES} entries"
            )
        entries = {}
        for key, value in table.items():
            key = tuple(key)
            if len(key) != arity:
                raise ArityMismatchError(
                    f"tuple {key!r} has {len(key)} components, expected {arity}"
                )
            for x in key:
                if x not in domain:
                    raise UnknownElementError(f"unknown domain element {x!r}")
            if value not in codomain:
                raise UnknownElementError(f"unknown codomain element {value!r}")
            entries[key] = value
        if _exceeds(n, arity, len(entries)):
            for key in product(domain.elements, repeat=arity):
                if key not in entries:
                    raise MissingTupleError(
                        f"mapping undefined for tuple ({', '.join(key)})"
                    )
        self.domain = domain
        self.arity = arity
        self.codomain = codomain
        self.table = entries

    def __call__(self, *xs):
        return self.table[xs]

    def __eq__(self, other):
        if not isinstance(other, MappingTable):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.arity == other.arity
            and self.codomain == other.codomain
            and self.table == other.table
        )

    def __repr__(self):
        return f"MappingTable(arity={self.arity}, {len(self.table)} entries)"

    def _covers(self):
        # read once per check: covers_above builds a new frozenset per call
        return {x: self.domain.covers_above(x) for x in self.domain}

    def is_monotone(self):
        """True iff pointwise greater arguments never map to a smaller value."""
        return _preserves(self.table, self._covers(), self.codomain.leq)

    def is_antitone(self):
        """True iff pointwise greater arguments never map to a greater value."""
        return _preserves(self.table, self._covers(), lambda u, v: self.codomain.leq(v, u))


class ClassMapping(namedtuple("ClassMapping", "domain_lin codomain_lin arity mode table")):
    """A mapping between level indices of two linearisations.

    Keys of ``table`` are all tuples of domain level indices (the computation
    indices of ``domain_lin.levels``), values are codomain level indices.
    Monotonicity is judged in the ascending linear order of each side.
    """

    __slots__ = ()

    def __call__(self, *level_indices):
        return self.table[level_indices]

    def ranked_table(self):
        """The table in ascending rank coordinates (0 = least class), sorted by key."""
        rank_d, rank_c = _rank_lookup(self.domain_lin), _rank_lookup(self.codomain_lin)
        ranked = ((tuple(map(rank_d, key)), rank_c(v)) for key, v in self.table.items())
        return dict(sorted(ranked))

    def _covers(self):
        # the domain side is the chain of ranks, so r + 1 covers r
        return [(r,) for r in range(1, self.domain_lin.num_classes)] + [()]

    def is_monotone(self):
        return _preserves(self.ranked_table(), self._covers(), lambda a, b: a <= b)

    def is_antitone(self):
        return _preserves(self.ranked_table(), self._covers(), lambda a, b: a >= b)


def extend(table, domain_lin, codomain_lin, mode):
    """Extend a mapping table to classes of the given linearisations.

    For each tuple of domain classes the table is evaluated on every member
    tuple of the class product; the outputs are projected to codomain classes
    and the greatest (mode "over") or least (mode "under") one in the
    codomain's linear order is kept.  The codomain order is linear, so the
    choice is unambiguous.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if domain_lin.source != table.domain:
        raise PosetMismatchError("domain linearisation built from a different poset")
    if codomain_lin.source != table.codomain:
        raise PosetMismatchError("codomain linearisation built from a different poset")
    pick = max if mode == MODE_OVER else min
    levels = domain_lin.levels
    rank_c = _rank_lookup(codomain_lin)
    out = {}
    for idx_tuple in product(range(len(levels)), repeat=table.arity):
        projected = [
            codomain_lin.class_of[table.table[xs]]
            for xs in product(*(levels[i] for i in idx_tuple))
        ]
        out[idx_tuple] = pick(projected, key=rank_c)
    return ClassMapping(domain_lin, codomain_lin, table.arity, mode, out)


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
            raise MixedArityError(
                f"components have arities {first.arity} and {t.arity}"
            )
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
    for x in lattice.elements:  # declaration order names the same pair every run
        for y in sorted(lattice.above(x), key=lattice.position):
            if not ranks[x] < ranks[y]:
                raise RanksNotOrderPreservingError(
                    f"{x!r} < {y!r} but rank({x}) = {ranks[x]} >= rank({y}) = {ranks[y]}"
                )
    pair = None
    for i, x in enumerate(lattice.elements):
        for y in lattice.elements[i + 1 :]:
            if lattice.incomparable(x, y):
                pair = (x, y)
                break
        if pair:
            break
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
        bottom = lattice.minimal_elements()[0]

        def image(x):
            value = bottom
            if lattice.leq(a, x):
                value = lattice.sup(value, b)
            if lattice.leq(b, x):
                value = lattice.sup(value, a)
            return value

        table = {(x,): image(x) for x in lattice.elements}
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
