"""Brute-force reference implementations and a reproducible poset generator.

Everything in this module favours being obviously correct over being fast and
is guarded by hard size caps so exhaustive runs stay within test budgets.
``brute_levels`` re-derives the level partition straight from its defining
set comprehension, independently of the longest-path layering used by
``compute_levels``; ``brute_order`` re-derives the order and its covers from
the raw generating pairs, independently of ``build_poset``; ``brute_rank``
ranks interval scores through the explicit dominance poset, independently of
the integer sweep in ``rank_items``; ``brute_extend`` extends a table by
scanning each class product, independently of the slot pass in ``extend``.
"""

from itertools import product

from .errors import CycleError, EmptyInputError, EmptyPosetError, TooLargeError
from .formats import RankGroup, Ranking
from .levels import PRIMAL, Linearisation, _check_direction, compute_levels
from .mappings import MODE_OVER, MODES, ClassMapping
from .poset import build_poset

MAX_BRUTE_LEVELS = 64
MAX_BRUTE_ORDER = 64
MAX_BRUTE_RANK = 64
MAX_BRUTE_TABLE = 4096
MAX_CHAIN_ENUMERATION = 14
MAX_EXTENSION_COUNT = 8
MAX_RANDOM_SIZE = 12


class SplitMix64:
    """splitmix64 pseudo-random generator.

    The stream is fully determined by the constants below, so seeded corpora
    are reproducible across runs and platforms.
    """

    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB
    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * self.MIX1) & self.MASK
        z = ((z ^ (z >> 27)) * self.MIX2) & self.MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next_u64() % n

    def chance(self, probability):
        # threshold comparison keeps 0 and 1 exact
        return self.next_u64() < int(probability * (1 << 64))


def brute_levels(p, direction=PRIMAL):
    """Level decomposition computed literally from its definition.

    Each round keeps, in declaration order, the unassigned elements whose
    strict up-set (primal) or down-set (dual) is disjoint from the unassigned
    remainder.  Output equals ``compute_levels(p, direction)`` exactly.
    """
    _check_direction(direction)
    if len(p) == 0:
        raise EmptyPosetError("cannot linearise an empty poset")
    if len(p) > MAX_BRUTE_LEVELS:
        raise TooLargeError(f"brute_levels is capped at {MAX_BRUTE_LEVELS} elements")
    strict = {x: p.above(x) if direction == PRIMAL else p.below(x) for x in p.elements}
    level_of, rounds, left = {}, 0, list(p.elements)
    while left:
        remainder = set(left)
        level = [x for x in left if strict[x].isdisjoint(remainder)]
        if not level:
            raise RuntimeError("level construction stalled on a non-empty remainder")
        level_of.update(dict.fromkeys(level, rounds))
        rounds += 1
        left = [x for x in left if x not in level_of]
    # from a list: a tuple(map(...)) here raised the peak RSS of a run of oracle requests
    return Linearisation(p, direction, tuple([level_of[x] for x in p.elements]), rounds)


def brute_order(elements, pairs):
    """Strict pairs and cover pairs of the order generated by ``pairs``, head on.

    Closes the raw pairs with Warshall's algorithm on a boolean matrix and
    keeps as covers the strict pairs with no element strictly between; the
    reference for ``build_poset``, which expects valid element names.  Raises
    ``CycleError`` naming the first declared element that lies on a cycle.
    """
    names = list(elements)
    if len(names) > MAX_BRUTE_ORDER:
        raise TooLargeError(f"brute_order is capped at {MAX_BRUTE_ORDER} elements")
    index = {x: i for i, x in enumerate(names)}
    n = len(names)
    less = [[False] * n for _ in range(n)]
    for x, y in pairs:
        less[index[x]][index[y]] = True
    for k in range(n):
        for i in range(n):
            if less[i][k]:
                for j in range(n):
                    if less[k][j]:
                        less[i][j] = True
    for i in range(n):
        if less[i][i]:
            raise CycleError(f"declared pairs create an order cycle through {names[i]!r}")
    strict = [(i, j) for i in range(n) for j in range(n) if less[i][j]]
    covers = [
        (i, j) for i, j in strict if not any(less[i][k] and less[k][j] for k in range(n))
    ]
    return (
        frozenset((names[i], names[j]) for i, j in strict),
        frozenset((names[i], names[j]) for i, j in covers),
    )


def brute_preserves(table, leq, ok):
    """True iff ``ok(table[xs], table[ys])`` for every pair of keys with ``xs <= ys``.

    Tests every ordered pair of keys, comparing them componentwise with
    ``leq``, so it needs neither a total table nor a transitive ``ok``; the
    reference for the cover-step checks of ``MappingTable`` and
    ``ClassMapping``.
    """
    if len(table) > MAX_BRUTE_TABLE:
        raise TooLargeError(f"brute_preserves is capped at {MAX_BRUTE_TABLE} entries")
    for xs, u in table.items():
        for ys, v in table.items():
            if all(map(leq, xs, ys)) and not ok(u, v):
                return False
    return True


def brute_extend(table, domain_lin, codomain_lin, mode):
    """Extension of a mapping table to classes, straight from its definition.

    For each tuple of domain ranks, in mixed radix, looks the table up on
    every member tuple of the class product and keeps the greatest (mode
    "over") or least (mode "under") codomain rank.  Output equals
    ``extend(table, domain_lin, codomain_lin, mode)`` exactly; capped at
    ``MAX_BRUTE_TABLE`` table entries.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if len(table.domain) ** table.arity > MAX_BRUTE_TABLE:
        raise TooLargeError(f"brute_extend is capped at {MAX_BRUTE_TABLE} table entries")
    entries = table.table
    pick = max if mode == MODE_OVER else min
    levels, out = domain_lin.levels, []
    for key in product(range(domain_lin.num_classes), repeat=table.arity):
        members = product(*(levels[domain_lin.rank(r)] for r in key))
        out.append(pick({codomain_lin.rank_of(entries[xs]) for xs in members}))
    return ClassMapping(domain_lin, codomain_lin, table.arity, mode, tuple(out))


def brute_rank(items, k, direction=PRIMAL):
    """Ranking of interval-scored items through the dominance poset itself.

    Lists every dominated pair of distinct ``(lo, hi)`` values, compared as
    rationals, builds that order with ``build_poset``, linearises it with
    ``compute_levels`` and emits whole classes best first until at least
    ``k`` items are out.  Output equals ``rank_items(items, k, direction)``
    exactly; capped at ``MAX_BRUTE_RANK`` distinct intervals.
    """
    _check_direction(direction)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    items = list(items)
    if not items:
        raise EmptyInputError("no scored items to rank")
    name_of = {}
    texts = {}
    values = []
    for it in items:
        value = (it.lo, it.hi)
        if value not in name_of:
            name_of[value] = f"{it.lo_text},{it.hi_text}"
            texts[name_of[value]] = (it.lo_text, it.hi_text)
            values.append(value)
    if len(values) > MAX_BRUTE_RANK:
        raise TooLargeError(f"brute_rank is capped at {MAX_BRUTE_RANK} distinct intervals")
    names = [name_of[v] for v in values]
    pairs = [
        (name_of[u], name_of[v])
        for u in values
        for v in values
        if u != v and u[0] <= v[0] and u[1] <= v[1]
    ]
    lin = compute_levels(build_poset(names, pairs), direction)
    groups = []
    emitted = 0
    for cls in reversed(lin.classes_ascending()):
        members = set(cls)
        group_items = tuple(
            it.item for it in items if name_of[(it.lo, it.hi)] in members
        )
        groups.append(RankGroup(group_items, tuple(texts[name] for name in cls)))
        emitted += len(group_items)
        if emitted >= k:
            break
    return Ranking(direction, k, tuple(groups))


def _walk_chains(covers, chain, chains):
    """Append to ``chains`` every maximal chain that extends ``chain`` upwards
    along ``covers``, the sorted upper covers of each element."""
    uppers = covers[chain[-1]]
    if not uppers:
        chains.append(tuple(chain))
        return
    for y in uppers:
        chain.append(y)
        _walk_chains(covers, chain, chains)
        chain.pop()


def enumerate_maximal_chains(p):
    """All maximal chains of ``p`` as element tuples.

    Walks the cover relation from each minimal element; the resulting list is
    duplicate-free and sorted lexicographically by declaration order.
    """
    if len(p) > MAX_CHAIN_ENUMERATION:
        raise TooLargeError(f"chain enumeration is capped at {MAX_CHAIN_ENUMERATION} elements")
    covers = {x: [] for x in p.elements}
    for x, y in p._pairs(p._closure()[1]):  # declaration order
        covers[x].append(y)
    chains = []
    for start in p.minimal_elements():
        _walk_chains(covers, [start], chains)
    return chains


def _count_extensions(below, remaining):
    """Number of ways to list ``remaining`` so each element follows its ``below``."""
    if not remaining:
        return 1
    total = 0
    for x in list(remaining):
        if not (below[x] & remaining):
            remaining.remove(x)
            total += _count_extensions(below, remaining)
            remaining.add(x)
    return total


def count_linear_extensions(p):
    """Exact number of total orders on the carrier containing the strict order.

    Counted by backtracking over topological orders; capped hard because the
    count grows factorially.
    """
    if len(p) > MAX_EXTENSION_COUNT:
        raise TooLargeError(
            f"linear extension counting is capped at {MAX_EXTENSION_COUNT} elements"
        )
    below = {x: p.below(x) for x in p.elements}
    return _count_extensions(below, set(p.elements))


def random_poset(seed, size, edge_probability):
    """Deterministic random poset on ``size`` labelled elements.

    Draws a random permutation, admits each forward pair of the permutation
    as an edge with ``edge_probability``, and closes transitively.  Identical
    arguments always give an identical poset.
    """
    if not 1 <= size <= MAX_RANDOM_SIZE:
        raise ValueError(f"size must be in 1..{MAX_RANDOM_SIZE}, got {size}")
    if not 0 <= edge_probability <= 1:
        raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = SplitMix64(seed)
    names = [f"n{i}" for i in range(size)]
    perm = list(range(size))
    for i in range(size - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    pairs = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.chance(edge_probability):
                pairs.append((names[perm[i]], names[perm[j]]))
    return build_poset(names, pairs)
