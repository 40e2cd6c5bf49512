"""Brute-force reference implementations and a reproducible poset generator.

Everything in this module favours being obviously correct over being fast and
is guarded by hard size caps so exhaustive runs stay within test budgets.
``brute_levels`` re-derives the level partition straight from its defining
set comprehension, independently of the longest-path layering used by
``compute_levels``.
"""

from .errors import EmptyPosetError, TooLargeError
from .levels import PRIMAL, Linearisation, _check_direction
from .poset import build_poset

MAX_BRUTE_LEVELS = 64
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

    Each round scans all unassigned elements and keeps those with no strictly
    greater (primal) or strictly smaller (dual) unassigned element.  Output
    equals ``compute_levels(p, direction)`` exactly.
    """
    _check_direction(direction)
    if len(p) == 0:
        raise EmptyPosetError("cannot linearise an empty poset")
    if len(p) > MAX_BRUTE_LEVELS:
        raise TooLargeError(f"brute_levels is capped at {MAX_BRUTE_LEVELS} elements")
    if direction == PRIMAL:
        def blocks(x, y):
            return p.lt(x, y)
    else:
        def blocks(x, y):
            return p.lt(y, x)
    assigned = set()
    levels = []
    while len(assigned) < len(p):
        level = frozenset(
            x
            for x in p.elements
            if x not in assigned
            and not any(
                blocks(x, y) for y in p.elements if y not in assigned and y != x
            )
        )
        if not level:
            raise RuntimeError("level construction stalled on a non-empty remainder")
        levels.append(level)
        assigned |= level
    class_of = {x: i for i, level in enumerate(levels) for x in level}
    return Linearisation(p, direction, tuple(levels), class_of)


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


def enumerate_maximal_chains(p):
    """All maximal chains of ``p`` as element tuples.

    Walks the cover relation from each minimal element; the resulting list is
    duplicate-free and sorted lexicographically by declaration order.
    """
    if len(p) > MAX_CHAIN_ENUMERATION:
        raise TooLargeError(
            f"chain enumeration is capped at {MAX_CHAIN_ENUMERATION} elements"
        )
    chains = []

    def walk(chain, x):
        uppers = sorted(p.covers_above(x), key=p.position)
        if not uppers:
            chains.append(tuple(chain))
            return
        for y in uppers:
            chain.append(y)
            walk(chain, y)
            chain.pop()

    for start in p.minimal_elements():
        walk([start], start)
    return chains


def count_linear_extensions(p):
    """Exact number of total orders on the carrier containing the strict order.

    Counted by backtracking over topological orders; capped hard because the
    count grows factorially.
    """
    if len(p) > MAX_EXTENSION_COUNT:
        raise TooLargeError(
            f"linear extension counting is capped at {MAX_EXTENSION_COUNT} elements"
        )
    remaining = set(p.elements)

    def count():
        if not remaining:
            return 1
        total = 0
        for x in list(remaining):
            if not (p.below(x) & remaining):
                remaining.remove(x)
                total += count()
                remaining.add(x)
        return total

    return count()


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
