"""File formats, deterministic JSON emission, and interval ranking.

All formats are UTF-8 and line-oriented; blank lines are ignored.  A ``#``
starts a comment that runs to the end of the line; every reader cuts them once per
file with one pattern, so a file holding ``#`` is copied once while it is read.

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

Scores are compared exactly: the strings are parsed to integer ratios
``(numerator, denominator)``, which ``ScoredItem`` stores as read and on which
``lo <= hi`` is checked; ``rank_items`` sweeps them in sorted order as
integers at one common scale.  A plain ASCII decimal (an optional ``-``, then
digits with at most one ``.``) is read as its digits over a power of ten, not
reduced and with no ``Fraction``; every other form ``Fraction`` accepts goes
through ``Fraction`` (decimal exponents up to 4300 in magnitude).
"""

import json
import re
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import islice, product
from math import lcm

from .errors import DuplicateElementError, EmptyInputError, ParseError, UnknownElementError
from .levels import PRIMAL, Linearisation, _check_direction
from .mappings import ClassMapping, MappingTable, _check_size
from .poset import build_poset

_MAX_EXPONENT = 4300  # the int digit limit; Fraction("1e10000000") takes seconds
_MAX_SCALE_BITS = 4096


def parse_poset(text):
    """Parse a poset file in one pass, O(lines) with one dict lookup per name occurrence:
    a name gets its index when first seen, and edge lines grow the generating lists.
    Comments are cut from the whole text by one pattern, a ``<`` inside a name shows once
    per file as more ``<`` than edge lines, and line numbers are counted only on an error.
    The first malformed line raises first, then the first repeated ``elem`` line, then a
    cycle."""
    text = _COMMENT.sub(" ", text)
    pos, succ, pred = {}, [], []  # name -> index by first appearance; generating lists
    again = None  # the name of the first repeated ``elem`` line
    for line in text.splitlines():
        fields = line.split()
        # the edge form goes first: an element may be named "elem"
        if len(fields) == 3 and fields[1] == "<":
            lower, _, upper = fields
            i = pos.get(lower)
            if i is None:
                i = pos[lower] = len(succ)
                succ.append([])
                pred.append([])
            j = pos.get(upper)
            if j is None:
                j = pos[upper] = len(succ)
                succ.append([])
                pred.append([])
            succ[i].append(j)
            pred[j].append(i)
        elif len(fields) == 2 and fields[0] == "elem":
            name = fields[1]
            if name in pos:
                again = again or name
            else:
                pos[name] = len(succ)
                succ.append([])
                pred.append([])
        elif fields:
            raise _first_fault(text)
    # each edge line holds one "<" of its own; any other lies in a name
    if text.count("<") != sum(map(len, succ)):
        raise _first_fault(text)
    if again is not None:
        raise DuplicateElementError(f"duplicate element {again!r}")
    # each name is a str.split() field of a line cut at "#" and holds no "<", so it is
    # non-empty and free of whitespace, "<" and "#": build_poset's name checks would pass
    return build_poset((), (), _resolved=(list(pos), pos, succ, pred))


# a comment runs to the next of str.splitlines' line boundaries; it is cut to a
# space, not "", so that a "\r" before it and a "\n" after it stay two line ends
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def _first_fault(text):
    """The ``ParseError`` of the first malformed line of a poset file cut of its comments:
    a line of no known form, or a name holding ``<``.  Asked for only once one is known to
    exist, it is the one place that counts lines."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if len(fields) == 3 and fields[1] == "<":
            names = fields[::2]
        elif fields[:1] == ["elem"]:
            if len(fields) != 2:
                return ParseError("expected 'elem NAME'", lineno)
            names = fields[1:]
        elif fields:
            return ParseError(f"unrecognised line {line.strip()!r}", lineno)
        else:
            continue
        bad = next((name for name in names if "<" in name), None)
        if bad is not None:
            return ParseError(f"invalid element name {bad!r}", lineno)


def render_poset(p):
    """Render a poset in the poset file format; inverse of :func:`parse_poset`."""
    lines = [f"elem {x}" for x in p.elements]
    lines.extend(f"{x} < {y}" for x, y in p._pairs(p._closure()[1]))
    return "\n".join(lines) + "\n"


def _first_fields(text):
    """Line number and fields of the first logical line, or None.  It reads
    growing prefixes, so the cost follows the line's position, not the file."""
    size = 256
    while True:
        lines = _COMMENT.sub(" ", text[:size]).splitlines()
        whole = size >= len(text)
        if not whole:
            del lines[-1]  # it may be cut short, or be ended by a "\r" of a "\r\n"
        for lineno, line in enumerate(lines, start=1):
            fields = line.split()
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
    rows = _COMMENT.sub(" ", text).splitlines()
    for lineno, line in enumerate(islice(rows, start, None), start + 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != arity + 2 or fields[arity] != "->":
            raise ParseError(f"expected {arity} argument(s), '->' and a value", lineno)
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


class ScoredItem(namedtuple("ScoredItem", "item lo_text hi_text lo_ratio hi_ratio")):
    """An item with an exact interval score: each end's source text and its integer
    ratio ``(numerator, denominator)`` as read, the denominator positive and the ratio
    not reduced.  ``lo`` and ``hi`` are ``Fraction`` views, built on each access."""

    __slots__ = ()

    lo = property(lambda self: Fraction(*self.lo_ratio))
    hi = property(lambda self: Fraction(*self.hi_ratio))


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
    for lineno, line in enumerate(_COMMENT.sub(" ", text).splitlines(), start=1):
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
        items.append(ScoredItem(name, lo_text, hi_text, lo, hi))
    return items


def parse_ranks(text, p):
    """Parse a ranks file into a complete element-to-integer map for ``p``."""
    ranks = {}
    for lineno, line in enumerate(_COMMENT.sub(" ", text).splitlines(), start=1):
        fields = line.split()
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
            raise ParseError(f"no rank given for element {x!r}")
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
    ends = [(it.lo_ratio, it.hi_ratio) for it in items]
    scale = 1
    for d in {d for pair in ends for _, d in pair}:
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"a score's denominator must be a positive int, got {d!r}")
        if scale is not None:
            scale = lcm(scale, d)
            if scale.bit_length() > _MAX_SCALE_BITS:  # coprime denominators: keys
                scale = None  # would grow without bound, so compare the rationals
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
        monotone, antitone = value._report()
        keys = product(range(value.domain_lin.num_classes), repeat=value.arity)
        payload = {
            "mode": value.mode,
            "arity": value.arity,
            "domain": _linearisation(value.domain_lin),
            "codomain": _linearisation(value.codomain_lin),
            "entries": list(zip(keys, value.ranks)),
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
