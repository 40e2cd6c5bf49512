"""Shared builders for the test suite: canned posets, seeded corpora, a
seeded shuffle, constructive generators for monotone and antitone tables,
the sandwich check on extensions, the up-set that refutes claim (ii) off
coinciding decompositions, reference readers for the file formats, one
logical line at a time, the CLI's earlier dispatch and file reader, the
earlier pairwise form of ``brute_levels``, longest cover walks from a list
of covers, class-mapping JSON and text composed from public calls, and the
earlier pull loop of ``Poset._layers`` and generator check of
``satisfies_elcc``."""

import io
import sys
from fractions import Fraction
from itertools import product

from posetlin import (
    DUAL,
    PRIMAL,
    EmptyPosetError,
    Linearisation,
    MappingTable,
    ParseError,
    PosetlinError,
    ScoredItem,
    SplitMix64,
    TooLargeError,
    brute_levels,
    build_poset,
    cli,
    extend,
    random_poset,
)
from posetlin.formats import canonical_json
from posetlin.levels import _check_direction
from posetlin.mappings import MAX_TABLE_ENTRIES
from posetlin.oracle import MAX_BRUTE_LEVELS
from posetlin.poset import _indices

EDGE_PROBS = (0.0, 0.1, 0.3, 0.7, 1.0)

# (domain size, arity) on either side of the 10**6-entry table cap
CAP_ADMITTED = ((1000, 2), (100, 3), (2, 19), (1, 1000), (0, 5))
CAP_REJECTED = ((1001, 2), (101, 3), (2, 20))


def cap_message(n, arity):
    return (
        f"mapping table of arity {arity} over {n} domain elements "
        "exceeds the cap of 1000000 entries"
    )


def chain(n, prefix="x"):
    names = [f"{prefix}{i}" for i in range(n)]
    return build_poset(names, list(zip(names, names[1:])))


def antichain(n, prefix="x"):
    return build_poset([f"{prefix}{i}" for i in range(n)], [])


def diamond_poset():
    return build_poset(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("a", "top"), ("bot", "b"), ("b", "top")],
    )


def abc_poset():
    return build_poset(
        ["bot", "a", "b", "c", "top"],
        [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")],
    )


def coinciding_levels_unequal_chains():
    """Poset whose primal and dual level partitions coincide although its
    maximal chains have lengths 3 and 4: the walk p, q, r cannot be extended,
    yet u, w, q, r and p, v, z, r are longer."""
    return build_poset(
        ["u", "w", "p", "q", "v", "z", "r"],
        [("u", "w"), ("w", "q"), ("p", "q"), ("q", "r"),
         ("p", "v"), ("v", "z"), ("z", "r")],
    )


def boolean_lattice_3():
    """Subsets of {1, 2, 3} ordered by inclusion."""
    subsets = [frozenset(s) for s in [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    ]]
    name = {s: "e" + "".join(str(i) for i in sorted(s)) for s in subsets}
    pairs = [
        (name[s], name[t])
        for s in subsets
        for t in subsets
        if s < t
    ]
    return build_poset([name[s] for s in subsets], pairs)


def grid_poset(rows, cols):
    """Componentwise-ordered product of two chains."""
    names = {(i, j): f"g{i}_{j}" for i in range(rows) for j in range(cols)}
    pairs = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                pairs.append((names[(i, j)], names[(i + 1, j)]))
            if j + 1 < cols:
                pairs.append((names[(i, j)], names[(i, j + 1)]))
    return build_poset([names[k] for k in sorted(names)], pairs)


def corpus_params(count, max_size=12, seed_base=1000):
    """Deterministic (seed, size, edge_probability) triples for the corpora."""
    out = []
    for i in range(count):
        size = 1 + (i % max_size)
        prob = EDGE_PROBS[(i // max_size) % len(EDGE_PROBS)]
        out.append((seed_base + i, size, prob))
    return out


def corpus(count, max_size=12, seed_base=1000):
    return [random_poset(*params) for params in corpus_params(count, max_size, seed_base)]


def linear_extension(p):
    """A deterministic linear extension of the carrier, smallest first."""
    return sorted(p.elements, key=lambda x: (len(p.below(x)), p.position(x)))


def _ordered_keys(domain, arity):
    index = {x: i for i, x in enumerate(linear_extension(domain))}
    return sorted(
        product(domain.elements, repeat=arity),
        key=lambda key: tuple(index[x] for x in key),
    )


def _constrained_table(domain, codomain, seed, arity, admissible):
    keys = _ordered_keys(domain, arity)
    for attempt in range(50):
        rng = SplitMix64(seed * 1_000_003 + attempt)
        assigned = {}
        for key in keys:
            images = [v for k, v in assigned.items() if domain.tuple_leq(k, key)]
            candidates = [z for z in codomain.elements if admissible(codomain, images, z)]
            if not candidates:
                assigned = None
                break
            assigned[key] = candidates[rng.below(len(candidates))]
        if assigned is not None:
            return MappingTable(domain, arity, codomain, assigned)
    # constant maps are both monotone and antitone
    rng = SplitMix64(seed)
    value = codomain.elements[rng.below(len(codomain))]
    return MappingTable(domain, arity, codomain, {key: value for key in keys})


def random_monotone_table(domain, codomain, seed, arity=1):
    """Seeded monotone table, built by choosing images above all lower images."""
    return _constrained_table(
        domain, codomain, seed, arity,
        lambda cod, images, z: all(cod.leq(w, z) for w in images),
    )


def random_antitone_table(domain, codomain, seed, arity=1):
    return _constrained_table(
        domain, codomain, seed, arity,
        lambda cod, images, z: all(cod.leq(z, w) for w in images),
    )


def random_table(domain, codomain, seed, arity=1):
    """Unconstrained seeded table (no order discipline at all)."""
    rng = SplitMix64(seed)
    return MappingTable(
        domain, arity, codomain,
        {
            key: codomain.elements[rng.below(len(codomain))]
            for key in product(domain.elements, repeat=arity)
        },
    )


def sandwiched(table, domain_lin, codomain_lin):
    """True iff the class of every ``table`` value lies between the under- and
    over-extensions at its argument classes."""
    over = extend(table, domain_lin, codomain_lin, "over")
    under = extend(table, domain_lin, codomain_lin, "under")
    for xs in product(table.domain.elements, repeat=table.arity):
        key = tuple(domain_lin.project(x) for x in xs)
        middle = codomain_lin.rank(codomain_lin.project(table.table[xs]))
        if not (
            codomain_lin.rank(under.table[key])
            <= middle
            <= codomain_lin.rank(over.table[key])
        ):
            return False
    return True


def shuffled(rng, items):
    """A Fisher-Yates shuffle of ``items`` by ``rng``, as a new list."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def coincidence_witness(p, direction=PRIMAL):
    """``(up_set, direction, mode)`` such that extending the indicator
    ``P -> 2`` of ``up_set`` in that direction and mode gives a map that is not
    monotone, or None when the primal and dual decompositions coincide.

    With ``u`` and ``d`` the primal and dual levels of ``brute_levels`` and
    ``r = k - 1 - u`` the primal rank, an element ``y`` is off a longest chain
    iff ``d(y) < r(y)``.  PRIMAL takes such a ``y`` of least rank ``s`` and the
    up-set generated by rank ``s - 1``, refuted by ``under``; DUAL takes the
    greatest such ``d(y) = t`` and everything outside the down-set generated
    by dual level ``t + 1``, refuted by ``over``.
    """
    primal, dual = brute_levels(p, PRIMAL), brute_levels(p, DUAL)
    d = {x: dual.project(x) for x in p.elements}
    r = {x: primal.num_classes - 1 - primal.project(x) for x in p.elements}
    off = [y for y in p.elements if d[y] < r[y]]
    if not off:
        return None
    if direction == PRIMAL:
        s = min(r[y] for y in off)
        rim = [x for x in p.elements if r[x] == s - 1]
        return frozenset(y for y in p.elements if any(p.leq(x, y) for x in rim)), PRIMAL, "under"
    t = max(d[y] for y in off)
    rim = [x for x in p.elements if d[x] == t + 1]
    return frozenset(y for y in p.elements if not any(p.leq(y, x) for x in rim)), DUAL, "over"


def cover_walk_layers(elements, covers, upward):
    """``layer[i]`` counts the cover steps of the longest walk from the i-th
    element up to a maximal one (``upward``) or down to a minimal one.  Each
    round relaxes every cover, in no particular order, until none changes."""
    index = {x: i for i, x in enumerate(elements)}
    steps = [(index[x], index[y]) if upward else (index[y], index[x]) for x, y in covers]
    layer = [0] * len(index)
    changed = True
    while changed:
        changed = False
        for i, j in steps:
            if layer[i] <= layer[j]:
                layer[i], changed = layer[j] + 1, True
    return layer


def naturally_labelled_posets(max_size):
    """Every poset on ``x0``..``x{n-1}`` whose order refines the label order,
    for n = 1..max_size: each new element takes as its strict down-set a
    down-set of the poset before it.  That gives 1, 2, 7, 40, 357 and 4,824
    posets for n = 1..6, one per labelled order."""
    level = [[]]  # each poset as the strict down-set bitmask of each element
    for n in range(max_size):
        level = [
            downs + [s]
            for downs in level
            for s in range(1 << n)
            if all(downs[i] & ~s == 0 for i in range(n) if s >> i & 1)
        ]
        names = [f"x{i}" for i in range(n + 1)]
        for downs in level:
            pairs = [(names[i], names[j]) for j, s in enumerate(downs) for i in range(j) if s >> i & 1]
            yield names, pairs


def bounds_bruteforce(p, x, y):
    """Lists of least upper and greatest lower bounds of x and y, head on."""
    uppers = [z for z in p.elements if p.leq(x, z) and p.leq(y, z)]
    lowers = [z for z in p.elements if p.leq(z, x) and p.leq(z, y)]
    least = [u for u in uppers if all(p.leq(u, v) for v in uppers)]
    greatest = [u for u in lowers if all(p.leq(v, u) for v in lowers)]
    return least, greatest


def is_lattice_bruteforce(p):
    """Independent lattice test: search bounds pair by pair, head on."""
    for x in p.elements:
        for y in p.elements:
            least, greatest = bounds_bruteforce(p, x, y)
            if len(least) != 1 or len(greatest) != 1:
                return False
    return True


def _check_token(name, lineno):
    if "<" in name:
        raise ParseError(f"invalid element name {name!r}", lineno)


def parse_poset_lines(text):
    """Reference reader for poset files, one logical line at a time: the
    declared names (a repeated ``elem`` line repeats its name) and the edge
    pairs.  ``formats.parse_poset`` must build the same poset as
    ``build_poset(declared, pairs)``, or raise the same error."""
    declared, seen, pairs = [], set(), []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) == 3 and fields[1] == "<":
            for name in (fields[0], fields[2]):
                _check_token(name, lineno)
                if name not in seen:
                    declared.append(name)
                    seen.add(name)
            pairs.append((fields[0], fields[2]))
        elif fields[0] == "elem":
            if len(fields) != 2:
                raise ParseError("expected 'elem NAME'", lineno)
            _check_token(fields[1], lineno)
            declared.append(fields[1])
            seen.add(fields[1])
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno)
    return declared, pairs


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_mapping_lines(text, domain, codomain):
    """Reference reader for mapping files over a list of logical lines; it
    must build the table ``formats.parse_mapping`` builds, or raise alike."""
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError("empty mapping file", 1)
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 2 or fields[0] != "arity":
        raise ParseError("expected header 'arity N'", lineno)
    try:
        arity = int(fields[1])
    except ValueError:
        raise ParseError(f"arity is not an integer: {fields[1]!r}", lineno) from None
    if arity < 1:
        raise ParseError(f"arity must be positive, got {arity}", lineno)
    if len(domain) ** arity > MAX_TABLE_ENTRIES:  # README: decided before any row is read
        raise TooLargeError(cap_message(len(domain), arity))
    entries = {}
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != arity + 2 or fields[arity] != "->":
            raise ParseError(f"expected {arity} argument(s), '->' and a value", lineno)
        key = tuple(fields[:arity])
        value = fields[arity + 1]
        if key in entries and entries[key] != value:
            raise ParseError(f"conflicting rows for tuple ({', '.join(key)})", lineno)
        entries[key] = value
    return MappingTable(domain, arity, codomain, entries)


def rank_entries(cm):
    """A class mapping's ``(key, value)`` entries in ascending rank coordinates
    (0 = least class), sorted by key: its level-index ``table`` mapped through
    both sides' ``Linearisation.rank``, never through ``ranks``' layout."""
    dom, cod = cm.domain_lin, cm.codomain_lin
    return sorted((tuple(map(dom.rank, key)), cod.rank(value)) for key, value in cm.table.items())


def emit_class_mapping_composed(cm):
    """``emit_json`` of a class mapping as composed from the public calls
    ``table``, ``is_monotone`` and ``is_antitone``."""
    dom, cod = cm.domain_lin, cm.codomain_lin
    return canonical_json({
        "mode": cm.mode,
        "arity": cm.arity,
        "domain": {"direction": dom.direction, "classes": dom.classes_ascending()},
        "codomain": {"direction": cod.direction, "classes": cod.classes_ascending()},
        "entries": rank_entries(cm),
        "monotone": cm.is_monotone(),
        "antitone": cm.is_antitone(),
    })


def extend_text_lines(cm):
    """``posetlin extend``'s text output of a class mapping, as lines: the
    earlier loop of one label lookup per argument and one ``print`` per
    entry, over ``rank_entries`` and the two public checks."""
    domain_labels = [f"[{' '.join(c)}]" for c in cm.domain_lin.classes_ascending()]
    codomain_labels = [f"[{' '.join(c)}]" for c in cm.codomain_lin.classes_ascending()]
    out = io.StringIO()
    print(f"mode: {cm.mode}", file=out)
    for key, value in rank_entries(cm):
        print(" x ".join(domain_labels[r] for r in key), "->", codomain_labels[value], file=out)
    print(f"monotone: {cm.is_monotone()}", file=out)
    print(f"antitone: {cm.is_antitone()}", file=out)
    return out.getvalue().splitlines()


def _score_value(text):
    head, _, tail = text.partition(".")
    digits = head.removeprefix("-") + tail
    if digits.isascii() and digits.isdigit() and len(text) <= 4300:
        return Fraction(int(head + tail), 10 ** len(tail))
    return Fraction(text)


def parse_scores_lines(text):
    """Reference reader for scores files on ``Fraction`` values throughout:
    exponents bounded, each text read, then ``lo > hi`` compared as
    rationals; each item stores its ends' reduced ratios.  ``formats.parse_scores``
    must give items of equal texts and values (``lo`` and ``hi``), or the same
    error."""
    items = []
    names = set()
    for lineno, line in _logical_lines(text):
        fields = line.split()
        if len(fields) != 3:
            raise ParseError("expected 'item lo hi'", lineno)
        name, lo_text, hi_text = fields
        if name in names:
            raise ParseError(f"duplicate item {name!r}", lineno)
        try:
            for field in (lo_text, hi_text):
                mark, exponent = field.upper().rpartition("E")[1:]
                if mark and abs(int(exponent)) > 4300:
                    raise ParseError(f"exponent of {field!r} exceeds 4300", lineno)
            lo = _score_value(lo_text)
            hi = _score_value(hi_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"scores must be decimals: {line!r}", lineno) from None
        if lo > hi:
            raise ParseError(f"lo must not exceed hi in {line!r}", lineno)
        names.add(name)
        ratios = lo.as_integer_ratio(), hi.as_integer_ratio()
        items.append(ScoredItem(name, lo_text, hi_text, *ratios))
    return items


def parse_ranks_lines(text, p):
    """Reference reader for ranks files over logical lines."""
    ranks = {}
    for lineno, line in _logical_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError("expected 'name rank'", lineno)
        name, rank_text = fields
        if name not in p:
            raise ParseError(f"unknown element {name!r}", lineno)
        if name in ranks:
            raise ParseError(f"duplicate rank for {name!r}", lineno)
        try:
            ranks[name] = int(rank_text)
        except ValueError:
            raise ParseError(f"rank is not an integer: {rank_text!r}", lineno) from None
    for x in p.elements:
        if x not in ranks:
            raise ParseError(f"no rank given for element {x!r}")
    return ranks


def main_via_root(argv=None):
    """``posetlin.cli.main`` dispatching through the root parser: it parses
    all of ``argv`` and its subparsers action hands the rest to the command."""
    args = cli._build_parser()[0].parse_args(argv)
    try:
        args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PosetlinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def read_text_mode(path):
    """The CLI's file reader in text mode, with universal newlines."""
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def brute_levels_pairwise(p, direction=PRIMAL):
    """``oracle.brute_levels`` as it was first written: each round tests every
    pair of unassigned elements with ``p.lt``, scanning in declaration order."""
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
    level_of = {x: i for i, level in enumerate(levels) for x in level}
    return Linearisation(p, direction, tuple([level_of[x] for x in p.elements]), len(levels))


def pulled_layers(p):
    """``p._layers()`` as it was first written: in reverse topological order,
    each element pulls one more than the greatest layer of its generating
    successors."""
    succ = p._succ
    layer = [0] * len(succ)
    at = layer.__getitem__
    for i in reversed(p._order):
        if succ[i]:
            layer[i] = 1 + max(map(at, succ[i]))
    return layer


def elcc_over_cover_bits(p):
    """``satisfies_elcc`` as it was first written: every set bit of each upper
    cover row must sit one dual level up, and an element with no upper cover on
    the top dual level."""
    cover_up = p._closure()[1]
    grade = pulled_layers(p._dual())
    top = max(grade)
    return all(all(grade[j] == g + 1 for j in _indices(above)) if above else g == top
               for g, above in zip(grade, cover_up))
