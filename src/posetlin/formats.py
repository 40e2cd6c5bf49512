"""File formats, deterministic JSON emission, and interval ranking.

All formats are UTF-8 and line-oriented; a ``#`` starts a comment that runs
to the end of the line, blank lines are ignored.

Poset files::

    elem NAME          # declare an element
    NAME1 < NAME2      # NAME1 is strictly below NAME2

Elements may also be introduced implicitly by edge lines; declaration order
is order of first appearance.  Repeating an edge line is harmless, repeating
an ``elem`` line is a duplicate declaration.

Mapping files::

    arity N
    x1 x2 ... xN -> y

Scores files::

    item lo hi         # lo and hi are decimals with lo <= hi

Ranks files::

    name rank          # rank is an integer; every element needs exactly one

Scores are compared exactly: the strings are parsed to integer ratios, on
which ``lo <= hi`` is checked and which ``rank_items`` sweeps in sorted
order as integers at one common scale.  A plain ASCII decimal (an optional
``-``, then digits with at most one ``.``) is read as an integer over a power
of ten; every other form ``Fraction`` accepts goes through ``Fraction``
(decimal exponents up to 4300 in magnitude).
"""

import json
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import lcm

from .errors import EmptyInputError, ParseError, UnknownElementError
from .levels import PRIMAL, Linearisation, _check_direction
from .mappings import ClassMapping, MappingTable, _check_size
from .poset import _indices, build_poset

_MAX_EXPONENT = 4300  # the int digit limit; Fraction("1e10000000") takes seconds
_MAX_SCALE_BITS = 4096


def _check_token(name, lineno):
    if "<" in name:
        raise ParseError(f"invalid element name {name!r}", lineno)


def parse_poset(text):
    """Parse a poset file in one pass and hand its names and pairs to :func:`build_poset`."""
    first = {}  # names in order of first appearance
    again = []  # names of repeated ``elem`` lines, left for build_poset to reject
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        fields = line.split()
        if not fields:
            continue
        # the edge form goes first: an element may be named "elem"
        if len(fields) == 3 and fields[1] == "<":
            lower, _, upper = fields
            if "<" in lower or "<" in upper:
                _check_token(lower, lineno)
                _check_token(upper, lineno)
            first[lower] = first[upper] = None
            pairs.append((lower, upper))
        elif fields[0] == "elem":
            if len(fields) != 2:
                raise ParseError("expected 'elem NAME'", lineno)
            name = fields[1]
            _check_token(name, lineno)
            if name in first:
                again.append(name)
            first[name] = None
        else:
            raise ParseError(f"unrecognised line {line.strip()!r}", lineno)
    return build_poset([*first, *again], pairs)


def render_poset(p):
    """Render a poset in the poset file format; inverse of :func:`parse_poset`."""
    names = p.elements
    lines = [f"elem {x}" for x in names]
    for x, covers in zip(names, p._closure()[1]):
        lines.extend(f"{x} < {names[j]}" for j in _indices(covers))
    return "\n".join(lines) + "\n"


def _first_fields(text):
    """Line number and fields of the first logical line, or None.  It reads
    growing prefixes, so the cost follows the line's position, not the file."""
    size = 256
    while True:
        lines = text[:size].splitlines()
        whole = size >= len(text)
        if not whole:
            del lines[-1]  # it may be cut short, or be ended by a "\r" of a "\r\n"
        for lineno, raw in enumerate(lines, start=1):
            fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if fields:
                return lineno, fields
        if whole:
            return None
        size *= 4


def parse_mapping(text, domain, codomain):
    """Parse a mapping file into a total mapping table between two posets.

    One pass, O(rows · arity), puts each row in its slot of the flat list, with no
    dict of rows.  Errors come in this order: a malformed or conflicting row, at its
    line; the first row naming an unknown element (its domain names before its
    value); the first missing tuple.
    """
    header = _first_fields(text)
    if header is None:
        raise ParseError("empty mapping file", 1)
    start, fields = header
    if len(fields) != 2 or fields[0] != "arity":
        raise ParseError("expected header 'arity N'", start)
    try:
        arity = int(fields[1])
    except ValueError:
        raise ParseError(f"arity is not an integer: {fields[1]!r}", start) from None
    if arity < 1:
        raise ParseError(f"arity must be positive, got {arity}", start)
    n = len(domain)
    _check_size(n, arity)  # before any row is read
    pos, cpos = domain._pos, codomain._pos
    values = [None] * n**arity
    unknown = None  # the error naming the first unknown name, raised after the last row
    strays = {}  # value of each tuple naming an unknown domain element
    for lineno, raw in enumerate(islice(text.splitlines(), start, None), start + 1):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not fields:
            continue
        if len(fields) != arity + 2 or fields[arity] != "->":
            raise ParseError(
                f"expected {arity} argument(s), '->' and a value", lineno
            )
        key, value = fields[:arity], fields[-1]
        try:
            slot = 0
            for x in key:
                slot = slot * n + pos[x]
            v = cpos[value]
        except KeyError:
            stray = next((x for x in key if x not in pos), None)
            if stray is not None:
                if strays.setdefault(tuple(key), value) != value:
                    raise ParseError(
                        f"conflicting rows for tuple ({', '.join(key)})", lineno
                    ) from None
                if unknown is None:
                    unknown = UnknownElementError(f"unknown domain element {stray!r}")
                continue
            if unknown is None:
                unknown = UnknownElementError(f"unknown codomain element {value!r}")
            v = value  # by name, so that a row giving the tuple another value conflicts
        old = values[slot]
        if old is None:
            values[slot] = v
        elif old != v:
            raise ParseError(f"conflicting rows for tuple ({', '.join(key)})", lineno)
    if unknown is not None:
        raise unknown
    return MappingTable(domain, arity, codomain, None, _values=values)


class ScoredItem(namedtuple("ScoredItem", "item lo hi lo_text hi_text")):
    """An item with an exact interval score: ``Fraction`` ends and their source text."""

    __slots__ = ()


def _plain(text):
    # a plain decimal as (integer, power of ten), else None: int(str) costs a
    # quarter of Fraction(str)'s regex; a text longer than the int digit
    # limit goes through Fraction, which reads each part alone
    head, _, tail = text.partition(".")
    digits = head.removeprefix("-") + tail
    if digits.isascii() and digits.isdigit() and len(text) <= _MAX_EXPONENT:
        return int(head + tail), 10 ** len(tail)
    return None


def parse_scores(text):
    """Parse a scores file into a list of scored items, in file order."""
    items = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ParseError("expected 'item lo hi'", lineno)
        name, lo_text, hi_text = fields
        if name in names:
            raise ParseError(f"duplicate item {name!r}", lineno)
        lo, hi = _plain(lo_text), _plain(hi_text)
        if lo is None or hi is None:  # both exponents are bounded before either is read
            try:
                for field in (lo_text, hi_text):
                    mark, exponent = field.upper().rpartition("E")[1:]
                    if mark and abs(int(exponent)) > _MAX_EXPONENT:
                        raise ParseError(f"exponent of {field!r} exceeds {_MAX_EXPONENT}", lineno)
                lo = lo or Fraction(lo_text).as_integer_ratio()
                hi = hi or Fraction(hi_text).as_integer_ratio()
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"scores must be decimals: {line.strip()!r}", lineno) from None
        if lo[0] * hi[1] > hi[0] * lo[1]:  # denominators are positive
            raise ParseError(f"lo must not exceed hi in {line.strip()!r}", lineno)
        names.add(name)
        items.append(ScoredItem(name, Fraction(*lo), Fraction(*hi), lo_text, hi_text))
    return items


def parse_ranks(text, p):
    """Parse a ranks file into a complete element-to-integer map for ``p``."""
    ranks = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not fields:
            continue
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
            raise ParseError(f"no rank given for element {x!r}", 1)
    return ranks


class RankGroup(namedtuple("RankGroup", "items intervals")):
    """One tie group of the ranking: items plus their interval values."""

    __slots__ = ()


class Ranking(namedtuple("Ranking", "direction k groups")):
    __slots__ = ()


def rank_items(items, k, direction=PRIMAL):
    """Rank interval-scored items by dominance, best class first.

    Classes are the levels of the dominance order on the distinct intervals
    ([a, b] dominates [c, d] iff c <= a and d <= b), found without building it:
    scores become integers at the lcm of their denominators (10^s at most for s
    decimal places; past 4096 bits they stay rationals), negated if primal, pairs
    are swept in ascending order, and a pair's level is the number of tails at or
    below its hi (layers of maxima, O(m log m)).  Whole classes (never split,
    items and intervals in file order) go out best first until at least ``k`` are out.
    """
    _check_direction(direction)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    items = list(items)
    if not items:
        raise EmptyInputError("no scored items to rank")
    ends = [(it.lo.as_integer_ratio(), it.hi.as_integer_ratio()) for it in items]
    scale = 1
    for d in {d for pair in ends for _, d in pair}:
        scale = lcm(scale, d)
        if scale.bit_length() > _MAX_SCALE_BITS:  # coprime denominators: keys
            scale = None  # would grow without bound, so compare the rationals
            break
    sign = -1 if direction == PRIMAL else 1
    if scale is None:
        keys = [(sign * it.lo, sign * it.hi) for it in items]
    else:
        keys = [(sign * a * (scale // b), sign * c * (scale // d)) for (a, b), (c, d) in ends]
    first = {}  # distinct interval -> its first item, in file order
    for n, key in enumerate(keys):
        first.setdefault(key, n)
    level = {}
    tails = []
    for key in sorted(first):
        level[key] = i = bisect_right(tails, key[1])
        tails[i:i + 1] = [key[1]]  # replaces tails[i], or appends a new level
    names = [[] for _ in tails]
    intervals = [[] for _ in tails]
    for it, key in zip(items, keys):
        names[level[key]].append(it.item)
    for key, n in first.items():
        intervals[level[key]].append((items[n].lo_text, items[n].hi_text))
    groups = []
    emitted = 0
    for i in range(len(tails)) if direction == PRIMAL else reversed(range(len(tails))):
        groups.append(RankGroup(tuple(names[i]), tuple(intervals[i])))
        emitted += len(names[i])
        if emitted >= k:
            break
    return Ranking(direction, k, tuple(groups))


def emit_json(value):
    """Serialise a linearisation, class mapping or ranking to canonical JSON.

    Output is byte-identical across runs: keys appear in a fixed order,
    classes in ascending linear order, and members of a class in declaration
    order.
    """
    if isinstance(value, Linearisation):
        payload = _linearisation(value)
    elif isinstance(value, ClassMapping):
        entries, monotone, antitone = value._report()
        payload = {
            "mode": value.mode,
            "arity": value.arity,
            "domain": _linearisation(value.domain_lin),
            "codomain": _linearisation(value.codomain_lin),
            "entries": list(entries),
            "monotone": monotone,
            "antitone": antitone,
        }
    elif isinstance(value, Ranking):
        payload = {
            "direction": value.direction,
            "k": value.k,
            "groups": [{"items": g.items, "intervals": g.intervals} for g in value.groups],
        }
    else:
        raise TypeError(f"cannot emit {type(value).__name__} as JSON")
    return canonical_json(payload)


def _linearisation(lin):
    return {"direction": lin.direction, "classes": lin.classes_ascending()}


def canonical_json(payload):
    """Serialise an acyclic tree of plain JSON data compactly, keeping its key order."""
    return json.dumps(payload, separators=(",", ":"), check_circular=False)
