"""File parsing, rendering, ranking, and canonical JSON."""

import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posetlin import formats
from posetlin import (
    DIRECTIONS,
    DUAL,
    PRIMAL,
    CycleError,
    DuplicateElementError,
    EmptyInputError,
    MappingTable,
    MissingTupleError,
    ParseError,
    ScoredItem,
    SplitMix64,
    TooLargeError,
    UnknownElementError,
    brute_order,
    brute_rank,
    build_poset,
    compute_levels,
    emit_json,
    extend,
    parse_mapping,
    parse_poset,
    parse_ranks,
    parse_scores,
    rank_items,
    render_poset,
)
from golden import deck_builder
from helpers import (
    CAP_ADMITTED,
    CAP_REJECTED,
    abc_poset,
    antichain,
    cap_message,
    corpus,
    diamond_poset,
    parse_mapping_lines,
    parse_poset_lines,
    parse_ranks_lines,
    parse_scores_lines,
    random_table,
    shuffled,
)

ABC_FILE = """\
# a five element lattice
elem bot
elem a
elem b
elem c
elem top
bot < a
a < b
b < top
bot < c
c < top
"""


def test_parse_singleton():
    p = parse_poset("elem x\n")
    assert p.elements == ("x",)
    assert not p.strict_pairs


def test_parse_the_worked_example():
    assert parse_poset(ABC_FILE) == abc_poset()


def test_parse_introduces_elements_through_edges():
    p = parse_poset("a < b\nelem c\nb < d\n")
    assert p.elements == ("a", "b", "c", "d")


def test_parse_ignores_comments_and_repeated_edges():
    p = parse_poset("a < b # first\n\n# again\na < b\n")
    assert p.strict_pairs == frozenset([("a", "b")])


def test_parse_self_loop_reports_a_cycle():
    with pytest.raises(CycleError):
        parse_poset("x < x\n")


def test_parse_duplicate_declaration():
    with pytest.raises(DuplicateElementError):
        parse_poset("elem x\nelem x\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError) as excinfo:
        parse_poset("elem x\nwhat is this\n")
    assert excinfo.value.line == 2
    with pytest.raises(ParseError):
        parse_poset("elem\n")
    with pytest.raises(ParseError):
        parse_poset("a < b<c\n")
    for line in ("elem a<b", "a<b < c"):
        with pytest.raises(ParseError, match="invalid element name 'a<b'"):
            parse_poset(line + "\n")


def test_render_round_trip():
    for p in [abc_poset()] + corpus(100):
        again = parse_poset(render_poset(p))
        assert again.elements == p.elements
        assert again.strict_pairs == p.strict_pairs
        assert again.cover_pairs == p.cover_pairs


def test_render_round_trip_with_an_element_named_elem():
    p = build_poset(["elem", "a"], [("elem", "a")])
    assert render_poset(p) == "elem elem\nelem a\nelem < a\n"
    assert parse_poset(render_poset(p)) == p


def test_render_writes_covers_by_declaration_position():
    # declared top first, pairs in reverse, and "bot < top" is not a cover
    p = build_poset(
        ["top", "x", "y", "bot"],
        [("bot", "top"), ("bot", "y"), ("bot", "x"), ("y", "top"), ("x", "top")],
    )
    assert render_poset(p) == (
        "elem top\nelem x\nelem y\nelem bot\nx < top\ny < top\nbot < x\nbot < y\n"
    )


@st.composite
def posets(draw):
    name = st.just("elem") | st.text("abxyz019_", min_size=1, max_size=3)
    names = draw(st.lists(name, max_size=10, unique=True))
    if not names:
        return build_poset([], [])
    height = draw(st.permutations(range(len(names))))
    index = st.integers(0, len(names) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=20))
    return build_poset(
        names, [(names[i], names[j]) for i, j in pairs if height[i] < height[j]]
    )


@settings(max_examples=100)
@given(posets())
def test_render_round_trip_property(p):
    assert parse_poset(render_poset(p)) == p


@pytest.mark.parametrize("text, line", [
    ("elem a\nelem a\nwhat is this\n", 3),  # not the duplicate
    ("a < b\nb < a\nelem\n", 3),  # not the cycle
    ("x < y # z\nelem a\nelem a b\n", 3),
])
def test_a_parse_error_is_reported_before_a_duplicate_or_a_cycle(text, line):
    with pytest.raises(ParseError) as excinfo:
        parse_poset(text)
    assert excinfo.value.line == line


@pytest.mark.parametrize("text, name", [
    ("a < b\nelem a\n", "a"),  # declared first by an edge
    ("elem x\nelem y\nelem y\nelem x\n", "y"),  # the first repeated line, not the first name
    ("a < b\nb < a\nelem a\n", "a"),  # not the cycle
])
def test_a_duplicate_is_reported_before_a_cycle(text, name):
    with pytest.raises(DuplicateElementError) as excinfo:
        parse_poset(text)
    assert str(excinfo.value) == f"duplicate element {name!r}"


def test_an_invalid_upper_name_is_reported_on_its_own_line():
    with pytest.raises(ParseError, match="^line 3: invalid element name 'b<c'$"):
        parse_poset("elem x\n# a < b<c\na < b<c\n")


def test_an_earlier_invalid_name_beats_a_later_unrecognised_line():
    for first in ("elem a<b", "a<b < c", "c < a<b"):
        with pytest.raises(ParseError, match="^line 1: invalid element name 'a<b'$"):
            parse_poset(first + "\nwhat is this\n")


def test_comment_and_whitespace_only_lines_are_skipped():
    text = "# only a comment\n \t\n\u3000\x85   # indented\nelem a\n\n"
    assert parse_poset(text).elements == ("a",)
    with pytest.raises(ParseError, match="^line 7: unrecognised line 'b c'$"):
        parse_poset(text + "\tb c # trailing\n")


def test_elem_may_name_either_end_of_an_edge():
    p = parse_poset("elem < a\nb < elem\n")
    assert p.elements == ("elem", "a", "b")
    assert p.cover_pairs == frozenset([("elem", "a"), ("b", "elem")])
    assert parse_poset("elem elem\nelem < a\n") == build_poset(["elem", "a"], [("elem", "a")])


CLEAN_NAMES = ["a", "b", "c", "d", "elem", "\u00e9"]
HOSTILE_NAMES = CLEAN_NAMES + ["a<b", "<", "#", "x#y", "a\x85b", "a\x0bb"]
# every line boundary of str.splitlines, "\r\n" counted as one
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def poset_soups(draw):
    """Poset file text built from edge, ``elem``, comment and blank lines,
    with every kind of whitespace.  Broken and hostile soups end lines at
    every line boundary, and put one inside each comment, before a line that
    a comment running past its end would hide.  Hostile soups also hold
    names that need rejecting, line boundaries inside names and lines of no
    known form."""
    mode = draw(st.sampled_from(["clean", "broken", "hostile"]))
    hostile, broken = mode == "hostile", mode != "clean"
    name = st.sampled_from(HOSTILE_NAMES if hostile else CLEAN_NAMES)
    kinds = ["edge", "edge", "edge", "elem", "comment", "blank"] + ["junk"] * hostile
    spaces = st.sampled_from(" \t\u3000\xa0\x1f" + "\x85" * hostile)
    breaks = st.sampled_from(LINE_BREAKS if broken else ["\n"])
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        space = draw(st.text(spaces, min_size=1, max_size=2))
        if kind == "edge":
            line = space.join([draw(name), "<", draw(name)])
        elif kind == "elem":
            line = "elem" + space + draw(name)
        elif kind == "comment":
            line = draw(st.sampled_from(["", "a < b ", "elem a"] + ["elem"] * hostile)) + "# a < b"
            if broken:
                line += draw(breaks) + draw(st.sampled_from(["a", "elem a b", "b < a"]))
        elif kind == "blank":
            line = space
        else:
            line = draw(st.sampled_from(["elem", "elem a b", "a < b < c", "a <b", "a"]))
        lines.append(draw(st.sampled_from(["", space])) + line)
    ends = [draw(breaks) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # the last line runs to the end of the file
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400)
@given(poset_soups())
def test_parse_poset_matches_the_line_by_line_reference(text):
    try:
        declared, pairs = parse_poset_lines(text)
        expected = build_poset(declared, pairs)
    except Exception as exc:
        with pytest.raises(Exception) as excinfo:
            parse_poset(text)
        assert (type(excinfo.value), str(excinfo.value)) == (type(exc), str(exc))
        return
    p = parse_poset(text)
    assert p == expected
    assert p.cover_pairs == expected.cover_pairs
    assert (p.strict_pairs, p.cover_pairs) == brute_order(declared, pairs)


def comment_readers():
    """Each reader that cuts comments, with its line-by-line reference, a line
    it reads and a line it rejects."""
    abc = SMALL_POSETS["abc"]

    def mapping(read):
        return lambda text: read(text, abc, abc)

    return [
        (parse_poset, parse_poset_lines, "elem a", "b c"),
        # the header, found by _first_fields, and the rows after it
        (mapping(parse_mapping), mapping(parse_mapping_lines), "", "arity x"),
        (mapping(parse_mapping), mapping(parse_mapping_lines), "arity 1\nbot -> bot", "bot bot"),
        # a trailing comment on the rejected line: its message quotes the line stripped
        (parse_scores, parse_scores_lines, "p 0 1", "q 2 1 # y"),
        (lambda text: parse_ranks(text, abc), lambda text: parse_ranks_lines(text, abc), "a 1", "zz"),
    ]


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_a_comment_ends_at_every_line_boundary(brk):
    for read, reference, good, bad in comment_readers():
        for text in [
            f"{good} # x{brk}{bad}{brk}",  # a break inside a comment
            f"{good}{brk}# x{brk}{bad}{brk}",  # a break after a comment line
            f"{good}\r# x{brk}{bad}{brk}",  # a "\r" before a comment ends a line of its own
        ]:
            line = len(text[: text.rindex(bad)].splitlines()) + 1
            with pytest.raises(ParseError) as want:
                reference(text)
            assert want.value.line == line
            with pytest.raises(ParseError) as got:
                read(text)
            assert (str(got.value), got.value.line) == (str(want.value), line), repr(text)


def chart_sized_files():
    """Files the size of the benchmark's largest posets, which the soups above
    never reach: a 400-element DAG with three forward edges per node, an 8×8
    grid, a 400-chain with redundant pairs, and edge lines before ``elem``
    lines that declare only new, isolated elements."""
    rng = SplitMix64(27)
    names = [f"v{i}" for i in range(400)]
    perm = shuffled(rng, names)
    dag_pairs = [(perm[i], perm[i + 1 + rng.below(399 - i)]) for i in range(399) for _ in range(3)]
    cells = [f"g{i}_{j}" for i in range(8) for j in range(8)]
    grid_pairs = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(7) for j in range(8)]
    grid_pairs += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(8) for j in range(7)]
    links = [f"c{i}" for i in range(400)]
    chain_pairs = list(zip(links, links[1:])) + list(zip(links, links[2::7]))
    files = {
        "dag": (names, dag_pairs),
        "grid": (cells, grid_pairs),
        "chain": (links, shuffled(rng, chain_pairs)),
    }
    texts = {
        name: "".join(f"elem {x}\n" for x in declared) + "".join(f"{x} < {y}\n" for x, y in pairs)
        for name, (declared, pairs) in files.items()
    }
    texts["edges-first"] = (
        "".join(f"{x} < {y}\n" for x, y in dag_pairs[:600])
        + "".join(f"elem lone{i}\n" for i in range(50))
    )
    return texts


CHART_SIZED_FILES = chart_sized_files()


def faulted_chart_files():
    """Copies of the chart-sized DAG file with one fault each, inserted at a seeded
    line in the second half of the file, where the soups never reach."""
    rng = SplitMix64(31)
    lines = CHART_SIZED_FILES["dag"].splitlines()
    lower, _, upper = lines[-1].split()
    faults = {
        "junk": "v1 v2",
        "elem-name": "elem a<b",
        "upper-name": "v3 < v4<v5",
        "repeated-elem": "elem v7",
        "back-edge": f"{upper} < {lower}",
    }
    texts = {}
    for kind, fault in faults.items():
        at = len(lines) // 2 + rng.below(len(lines) // 2)
        texts[kind] = "\n".join(lines[:at] + [fault] + lines[at:]) + "\n"
    return texts


FAULTED_CHART_FILES = faulted_chart_files()


@pytest.mark.parametrize("kind", FAULTED_CHART_FILES)
def test_parse_poset_reports_a_deep_fault_as_the_reference_does(kind):
    text = FAULTED_CHART_FILES[kind]
    with pytest.raises(Exception) as expected:
        build_poset(*parse_poset_lines(text))
    with pytest.raises(Exception) as excinfo:
        parse_poset(text)
    got, exc = excinfo.value, expected.value
    assert (type(got), str(got), getattr(got, "line", None)) == (
        type(exc), str(exc), getattr(exc, "line", None))


@pytest.mark.parametrize("name", CHART_SIZED_FILES)
def test_parse_poset_matches_the_reference_on_chart_sized_files(name):
    text = CHART_SIZED_FILES[name]
    p = parse_poset(text)
    expected = build_poset(*parse_poset_lines(text))
    assert p == expected
    assert p.elements == expected.elements
    assert p.cover_pairs == expected.cover_pairs
    for direction in DIRECTIONS:
        assert compute_levels(p, direction).layer == compute_levels(expected, direction).layer


F_MAPPING = """\
arity 1
bot -> bot
a -> top
b -> top
c -> c
top -> top
"""


def test_parse_mapping(abc_lattice):
    table = parse_mapping(F_MAPPING, abc_lattice, abc_lattice)
    assert table.arity == 1
    assert table("a") == "top"
    assert table.is_monotone()


def test_parse_identity_mapping(abc_lattice):
    text = "arity 1\n" + "".join(f"{x} -> {x}\n" for x in abc_lattice.elements)
    table = parse_mapping(text, abc_lattice, abc_lattice)
    assert all(table(x) == x for x in abc_lattice.elements)


def test_parse_mapping_missing_row(abc_lattice):
    text = "arity 1\nbot -> bot\na -> top\nb -> top\nc -> c\n"
    with pytest.raises(MissingTupleError, match="top"):
        parse_mapping(text, abc_lattice, abc_lattice)


def test_parse_mapping_header_errors(abc_lattice):
    for text in ("", "bot -> bot\n", "arity x\n", "arity 0\n"):
        with pytest.raises(ParseError):
            parse_mapping(text, abc_lattice, abc_lattice)


@pytest.mark.parametrize("text", ["", "\n", "# arity 1\n  \n", "\x85\u3000\r\n# c"])
def test_a_mapping_file_without_a_logical_line_is_empty_at_line_1(abc_lattice, text):
    with pytest.raises(ParseError, match="^line 1: empty mapping file$"):
        parse_mapping(text, abc_lattice, abc_lattice)


def test_parse_mapping_row_errors(abc_lattice):
    with pytest.raises(ParseError):
        parse_mapping("arity 1\nbot bot\n", abc_lattice, abc_lattice)
    with pytest.raises(ParseError):
        parse_mapping("arity 2\nbot -> bot\n", abc_lattice, abc_lattice)
    with pytest.raises(ParseError, match="conflicting"):
        parse_mapping("arity 1\nbot -> bot\nbot -> top\n", abc_lattice, abc_lattice)
    with pytest.raises(UnknownElementError):
        parse_mapping("arity 1\nzz -> bot\n", abc_lattice, abc_lattice)


def test_parse_mapping_tolerates_identical_duplicate_rows(abc_lattice):
    text = F_MAPPING + "a -> top\n"
    assert parse_mapping(text, abc_lattice, abc_lattice)("a") == "top"


def test_parse_mapping_entry_cap(abc_lattice):
    with pytest.raises(TooLargeError):
        parse_mapping("arity 9\n", abc_lattice, abc_lattice)


@settings(max_examples=100)
@given(posets(), posets(), st.integers(0, 2**32), st.randoms(use_true_random=False), st.data())
def test_mapping_round_trip_property(dom, cod, seed, shuffler, data):
    assume(len(cod) > 0)
    arity = data.draw(st.integers(1, 3 if len(dom) <= 5 else 2))
    table = random_table(dom, cod, seed=seed, arity=arity)
    rows = [f"{' '.join(xs)} -> {y}\n" for xs, y in table.table.items()]
    shuffler.shuffle(rows)
    assert parse_mapping(f"arity {arity}\n" + "".join(rows), dom, cod) == table


def assert_reads_like(read, reference, *args):
    """``read(*args)`` returns what ``reference(*args)`` returns, or raises an
    exception of the same type and text; gives the shared result."""
    try:
        expected = reference(*args)
    except Exception as exc:
        with pytest.raises(Exception) as excinfo:
            read(*args)
        assert (type(excinfo.value), str(excinfo.value)) == (type(exc), str(exc))
        return None
    got = read(*args)
    assert got == expected
    return got


SMALL_POSETS = {"abc": abc_poset(), "diamond": diamond_poset()}
SPACES = st.text(st.sampled_from(" \t\x1f\u3000"), min_size=1, max_size=2)


@st.composite
def spoiled_rows(draw, rows, spoilers):
    """``rows`` in drawn order, then spoiled: rows dropped or repeated, and
    drawn ``spoilers`` (bad rows, blank and comment lines) put in, joined by
    drawn whitespace."""
    rows = list(draw(st.permutations(rows)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        action = draw(st.sampled_from(["drop", "repeat", "spoil", "spoil"]))
        if action == "drop" and rows:
            del rows[min(at, len(rows) - 1)]
        elif action == "repeat" and rows:
            rows.insert(at, draw(st.sampled_from(rows)))
        elif action == "spoil":
            rows.insert(at, draw(spoilers))
    space = draw(SPACES)
    return [space.join(row.split(" ")) + draw(st.sampled_from(["", " ", "# note"])) for row in rows]


COMMENT_LINES = ["", "  ", "# a -> b", "\u3000# 1"]


@st.composite
def mapping_files(draw):
    """Mapping files over the small posets: whole tables, then header errors,
    an over-cap header, short rows, conflicts (also after a row with an
    unknown value, and between rows with an unknown argument), unknown names
    on either side, identical duplicate rows, missing rows and blank or
    comment-only lines."""
    dom = draw(st.sampled_from(sorted(SMALL_POSETS)))
    cod = draw(st.sampled_from(sorted(SMALL_POSETS)))
    domain, codomain = SMALL_POSETS[dom], SMALL_POSETS[cod]
    arity = draw(st.integers(1, 3))
    value = st.sampled_from(codomain.elements)
    rows = [f"{' '.join(xs)} -> {draw(value)}" for xs in product(domain.elements, repeat=arity)]
    arg = st.sampled_from(domain.elements)
    rest = " bot" * (arity - 1)
    spoilers = st.one_of(
        st.builds(lambda x, y: f"{x}{rest} -> {y}", arg, value),  # conflicts
        st.sampled_from([f"zz{rest} -> bot", f"bot{rest} -> zz"]),
        st.sampled_from([f"bot{rest} -> zz\nbot{rest} -> bot", f"zz{rest} -> bot\nzz{rest} -> a"]),
        st.sampled_from(["bot ->", "bot bot", f"bot{' bot' * arity} -> bot", "-> bot"]),
        st.sampled_from(COMMENT_LINES),
    )
    header = draw(st.sampled_from(
        [f"arity {arity}"] * 12
        + ["arity x", "arity 0", "arity", f"arity {arity} 1", "", "bot -> bot", "arity 20"]
    ))
    lines = [*draw(st.lists(st.sampled_from(COMMENT_LINES), max_size=2)), header]
    if draw(st.integers(0, 9)):
        lines += draw(spoiled_rows(rows, spoilers))
    return "\n".join(lines), dom, cod


@settings(max_examples=200)
@given(mapping_files())
def test_parse_mapping_matches_the_line_list_reference(drawn):
    text, dom, cod = drawn
    assert_reads_like(parse_mapping, parse_mapping_lines, text, SMALL_POSETS[dom], SMALL_POSETS[cod])


@pytest.mark.parametrize(
    "rows, error, message",
    [
        # a row with an unknown value still conflicts with a later row
        ("bot -> zz\nbot -> bot\n", ParseError, "line 3: conflicting rows for tuple (bot)"),
        # so do two rows naming the same unknown domain element
        ("zz -> bot\na -> top\nzz -> a\n", ParseError, "line 4: conflicting rows for tuple (zz)"),
        # the first unknown name in file order, domain names before the value
        ("a -> top\nyy -> zz\nbot -> bot\nxx -> bot\n", UnknownElementError,
         "unknown domain element 'yy'"),
        ("bot -> ww\nyy -> bot\n", UnknownElementError, "unknown codomain element 'ww'"),
        # an unknown name before a missing tuple
        ("bot -> bot\nzz -> a\n", UnknownElementError, "unknown domain element 'zz'"),
    ],
)
def test_parse_mapping_reports_errors_in_the_documented_order(abc_lattice, rows, error, message):
    with pytest.raises(error) as caught:
        parse_mapping("arity 1\n" + rows, abc_lattice, abc_lattice)
    assert type(caught.value) is error
    assert str(caught.value) == message
    if error is ParseError:
        assert caught.value.line == int(message.split()[1].rstrip(":"))


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.sampled_from(["", " ", "# c", "\u3000#"]), st.integers(0, 300)), max_size=6
    ),
    st.lists(st.sampled_from(LINE_BREAKS), min_size=9, max_size=9),
    st.sampled_from(["arity x", "arity 1"]),
)
def test_parse_mapping_numbers_lines_as_splitlines_does(before, breaks, header):
    # blank and comment lines of up to 300 padding characters come before the
    # header, so it may start past any prefix the parser reads first
    lines = [text + "#" * pad if text else " " * pad for text, pad in before]
    lines += [header, "bot bot"]  # a malformed row after a valid header
    text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
    at = text.splitlines().index(header) + 1
    want = (
        f"line {at}: arity is not an integer: 'x'"
        if header == "arity x"
        else f"line {at + 1}: expected 1 argument(s), '->' and a value"
    )
    with pytest.raises(ParseError) as caught:
        parse_mapping(text, SMALL_POSETS["abc"], SMALL_POSETS["abc"])
    assert str(caught.value) == want


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_parse_mapping_reads_a_header_cut_by_its_first_prefix(brk):
    # the header is looked for in the first 256 characters first: put the
    # header, or the line break before it, across that cut
    for pad in range(240, 258):
        text = "#" * pad + brk + "arity 1" + brk + "bot bot"
        with pytest.raises(ParseError, match="^line 3: expected 1 argument"):
            parse_mapping(text, SMALL_POSETS["abc"], SMALL_POSETS["abc"])


def test_parse_mapping_rejects_an_over_cap_header_without_reading_the_rows():
    p = antichain(3)
    text = "arity 20\n" + "x0 -> x0\n" * 200_000
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            parse_mapping(text, p, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) // 20  # splitting the 1.8 MB of rows would take over 10 MB


@st.composite
def ranks_files(draw):
    """Ranks files over the small posets: every element ranked, then rows
    missing or repeated, unknown names, ranks that are not integers, rows of
    the wrong length and blank or comment-only lines."""
    name = draw(st.sampled_from(sorted(SMALL_POSETS)))
    rank = st.integers(-5, 5)
    rows = [f"{x} {draw(rank)}" for x in SMALL_POSETS[name].elements]
    spoilers = st.sampled_from(["zz 1", "a x", "a 1.5", "a", "a 1 2", "a\u0663", *COMMENT_LINES])
    return "\n".join(draw(spoiled_rows(rows, spoilers))), name


@settings(max_examples=200)
@given(ranks_files())
def test_parse_ranks_matches_the_line_list_reference(drawn):
    text, name = drawn
    assert_reads_like(parse_ranks, parse_ranks_lines, text, SMALL_POSETS[name])


def test_parse_scores():
    items = parse_scores("p 0.9 1.0\nq 0.2 0.4\n")
    assert [it.item for it in items] == ["p", "q"]
    assert items[0].lo_text == "0.9"
    assert items[0].lo < items[0].hi


def test_parse_scores_errors():
    with pytest.raises(ParseError, match="duplicate"):
        parse_scores("p 0 1\np 0 1\n")
    with pytest.raises(ParseError):
        parse_scores("p 0.5 0.4\n")
    with pytest.raises(ParseError):
        parse_scores("p one 1\n")
    with pytest.raises(ParseError):
        parse_scores("p 0.5\n")


def parsed_or_rejected(s):
    try:
        (item,) = parse_scores(f"p {s} {s}\n")
    except ParseError:
        return ParseError
    assert item.lo == item.hi
    return item.lo


def fraction_or_rejected(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return ParseError


# at most five characters with an exponent, so it never exceeds the bound
@settings(max_examples=300)
@given(st.text("0123456789.-+_eE/\u0663\uff10", min_size=1, max_size=5)
       | st.text("0123456789.-+_/\u0663\uff10", min_size=1, max_size=12))
def test_parse_scores_reads_each_field_as_fraction_does(s):
    assert parsed_or_rejected(s) == fraction_or_rejected(s)


@pytest.mark.parametrize(
    "s, value",
    [("-.5", Fraction(-1, 2)), ("5.", 5), ("-0", 0), (".", ParseError),
     ("-", ParseError), ("--5", ParseError), ("1.2.3", ParseError),
     ("+0.5", Fraction(1, 2)), ("1_0", 10), ("1/2", Fraction(1, 2)),
     ("5e-1", Fraction(1, 2)), ("\u0663", 3), ("-\uff10.5", Fraction(-1, 2))],
)
def test_parse_scores_reads_pinned_fields_as_fraction_does(s, value):
    assert parsed_or_rejected(s) == fraction_or_rejected(s) == value


def test_parse_scores_rejects_plain_decimals_beyond_the_digit_limit():
    # int() raises ValueError past the digit limit: a parse error, never an escape
    for field in ("1" * 4301, "-" + "1" * 4301, "0." + "1" * 4301, "1." + "1" * 4301):
        with pytest.raises(ParseError, match="line 1: scores must be decimals"):
            parse_scores(f"p 0 {field}\n")
    # each part within the limit: read as Fraction reads it
    field = "1" * 3000 + "." + "1" * 3000
    (item,) = parse_scores(f"p {field} {field}\n")
    assert item.lo == Fraction(field)


def test_plain_decimals_skip_the_fraction_string_parser(monkeypatch):
    rng = SplitMix64(12)
    lines = ["a -.5 5.", "b -0 0"]
    for i in range(200):  # forms 0 and 1 are plain decimals
        lo = rng.below(13) - 4
        hi = lo + rng.below(5)
        lines.append(f"i{i} {score_text(lo, rng.below(2))} {score_text(hi, rng.below(2))}")
    text = "\n".join(lines) + "\n"
    expected = parse_scores(text)

    def no_strings(*args):
        if any(isinstance(arg, str) for arg in args):
            raise AssertionError("a plain decimal went through Fraction(str)")
        return Fraction(*args)

    monkeypatch.setattr(formats, "Fraction", no_strings)
    assert parse_scores(text) == expected
    with pytest.raises(AssertionError):  # the guard is live
        parse_scores("p 1/2 1\n")


SCORE_FORMS = [
    "0", "0.5", "0.50", "-.5", "5.", "-0", "+0.5", "1_0", "1/2", "-3/4", "1/0", "5e-1",
    "1E+2", "-2.5e1", "\u0663", "-\uff10.5", ".", "-", "--5", "1.2.3", "x", "1e", "1e4300",
    "1e-4300", "1e4301", "1e-4301", "1E+4_301", "1" * 4300, "1" * 4301, "-" + "1" * 4300,
    "0." + "1" * 4298, "0." + "1" * 4299,
]


@st.composite
def plain_decimals(draw):
    value = draw(st.integers(-(10**7), 10**7))
    places = draw(st.integers(0, 4))
    whole, part = divmod(abs(value), 10**places)
    text = f"{whole}.{part:0{places}d}" + "0" * draw(st.integers(0, 2)) if places else str(whole)
    return ("-" if value < 0 else "") + text


@st.composite
def score_soups(draw):
    """Scores file text: rows with plain, padded, exponent, fraction and
    malformed fields, fields just over the exponent and digit bounds,
    duplicate names, ``lo > hi``, comments, rows of the wrong length, every
    kind of whitespace and ``\\x85`` or ``\\r\\n`` line breaks."""
    field = st.one_of(plain_decimals(), plain_decimals(), st.sampled_from(SCORE_FORMS))
    name = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "\u00e9"])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] + ["sorted row"] * 3 + ["comment", "blank", "junk"]))
        space = draw(SPACES)
        if kind == "row":
            line = space.join([draw(name), draw(field), draw(field)])
        elif kind == "sorted row":
            line = space.join([draw(name), *sorted([draw(plain_decimals()) for _ in "lh"], key=Fraction)])
        elif kind == "comment":
            line = draw(st.sampled_from(["", "a 0 1 "])) + "# a 1 0"
        elif kind == "blank":
            line = space
        else:
            line = space.join(draw(st.lists(field, min_size=1, max_size=4).filter(lambda f: len(f) != 2)))
        lines.append(draw(st.sampled_from(["", space])) + line + draw(st.sampled_from(["\n", "\x85", "\r\n"])))
    return "".join(lines)


def score_fields(items):
    return [(it.item, it.lo, it.hi, type(it.lo), type(it.hi), it.lo_text, it.hi_text) for it in items]


@settings(max_examples=300)
@given(score_soups())
def test_parse_scores_matches_the_fraction_reference(text):
    # the items compare by value: the parser keeps a plain decimal's ratio unreduced
    assert_reads_like(
        lambda t: score_fields(parse_scores(t)), lambda t: score_fields(parse_scores_lines(t)), text
    )


def test_parse_ranks(diamond):
    ranks = parse_ranks("bot 0\na 1\nb 1\ntop 2\n", diamond)
    assert ranks == {"bot": 0, "a": 1, "b": 1, "top": 2}


def test_parse_ranks_errors(diamond):
    with pytest.raises(ParseError, match="unknown"):
        parse_ranks("zz 0\n", diamond)
    with pytest.raises(ParseError, match="duplicate"):
        parse_ranks("bot 0\nbot 1\na 1\nb 1\ntop 2\n", diamond)
    with pytest.raises(ParseError, match="^no rank given for element 'top'$") as excinfo:
        parse_ranks("bot 0\na 1\nb 1\n", diamond)
    assert excinfo.value.line is None
    with pytest.raises(ParseError):
        parse_ranks("bot zero\na 1\nb 1\ntop 2\n", diamond)


THREE_INTERVALS = "p 0.9 1.0\nq 0.2 0.4\nr 0.1 0.8\n"


def test_rank_top_one_keeps_only_the_dominant_interval():
    ranking = rank_items(parse_scores(THREE_INTERVALS), 1)
    assert [group.items for group in ranking.groups] == [("p",)]


def test_rank_emits_whole_groups_until_k_is_reached():
    ranking = rank_items(parse_scores(THREE_INTERVALS), 2)
    assert [group.items for group in ranking.groups] == [("p",), ("q", "r")]


def test_rank_single_item():
    ranking = rank_items(parse_scores("only 0.5 0.5\n"), 4)
    assert [group.items for group in ranking.groups] == [("only",)]


def test_rank_identical_intervals_form_one_group():
    ranking = rank_items(parse_scores("p 0.5 0.7\nq 0.5 0.7\nr 0.50 0.70\n"), 1)
    assert [group.items for group in ranking.groups] == [("p", "q", "r")]


def test_rank_dual_direction_still_emits_best_group_first():
    ranking = rank_items(parse_scores(THREE_INTERVALS), 1, DUAL)
    assert ranking.direction == DUAL
    assert [group.items for group in ranking.groups] == [("p",)]


def test_rank_rejects_empty_input_and_bad_k():
    with pytest.raises(EmptyInputError):
        rank_items([], 1)
    with pytest.raises(ValueError):
        rank_items(parse_scores("p 0 1\n"), 0)


def test_rank_respects_dominance():
    # strictly dominated intervals never land in an earlier group
    from posetlin import SplitMix64

    rng = SplitMix64(2024)
    lines = []
    for i in range(30):
        lo = rng.below(50)
        hi = lo + rng.below(50)
        lines.append(f"i{i} 0.{lo:02d} 0.{hi:02d}")
    items = parse_scores("\n".join(lines) + "\n")
    ranking = rank_items(items, len(items))
    group_of = {}
    for gi, group in enumerate(ranking.groups):
        for name in group.items:
            group_of[name] = gi
    by_name = {it.item: it for it in items}
    for u in items:
        for v in items:
            dominates = (u.lo, u.hi) != (v.lo, v.hi) and u.lo >= v.lo and u.hi >= v.hi
            if dominates:
                assert group_of[u.item] < group_of[v.item]
    top = {
        u.item
        for u in items
        if not any(
            (v.lo, v.hi) != (u.lo, u.hi) and v.lo >= u.lo and v.hi >= u.hi
            for v in items
        )
    }
    assert set(ranking.groups[0].items) == top


def test_parse_scores_bounds_the_decimal_exponent():
    # just above the bound, so a missing check still fails fast
    for line in ("p 0 1e4301", "p 1e-4301 1", "p 0 1E+4_301"):
        with pytest.raises(ParseError, match="line 1: exponent of .* exceeds 4300"):
            parse_scores(line + "\n")
    # both fields are bounded before either is read
    with pytest.raises(ParseError, match="exponent of '1e9999' exceeds 4300"):
        parse_scores("p x 1e9999\n")
    (item,) = parse_scores("p 1e-4300 1e4300\n")
    assert (item.lo, item.hi) == (Fraction(1, 10**4300), 10**4300)


def score_text(quarters, form):
    """``quarters / 4`` spelt as a decimal, a padded decimal, an exponent form
    or a fraction: 0.5, 0.50, 5e-1 and 1/2 all name one value."""
    q = 25 * quarters  # the value in hundredths
    if form == 3:
        return str(Fraction(quarters, 4))
    if form == 2:
        exponent = -2
        while q and q % 10 == 0:
            q, exponent = q // 10, exponent + 1
        return f"{q}e{exponent}"
    whole, cents = divmod(abs(q), 100)
    digits = f"{cents:02d}".rstrip("0") or "0"
    return f"{'-' if q < 0 else ''}{whole}.{digits}" + "0" * form


RANK_FORMS = """\
a 0.5 0.75
b 0.50 0.750
c 5e-1 3/4
d 1/2 1/2
e -0.25 0.5
f 0.5 1
g -1/4 -25e-2
h 0.75 0.75
i 0.5 0.8
"""


def assert_ranks_like_the_reference(items, ks):
    for direction in DIRECTIONS:
        for k in ks:
            expected = emit_json(brute_rank(items, k, direction))
            assert emit_json(rank_items(items, k, direction)) == expected, (direction, k)


def test_rank_matches_the_reference_on_every_number_form():
    # duplicates across spellings, lo == hi, equal lo with different hi,
    # negative values
    items = parse_scores(RANK_FORMS)
    assert_ranks_like_the_reference(items, range(1, len(items) + 2))


@pytest.mark.parametrize("seed", range(9000, 9040))
def test_rank_matches_the_dominance_poset_reference(seed):
    rng = SplitMix64(seed)
    m = 1 + rng.below(60)
    drawn = []
    lines = []
    for i in range(m):
        if drawn and rng.chance(0.25):
            lo, hi = drawn[rng.below(len(drawn))]
        else:
            lo = rng.below(13) - 4
            hi = lo + rng.below(7)
            drawn.append((lo, hi))
        lines.append(f"i{i} {score_text(lo, rng.below(4))} {score_text(hi, rng.below(4))}")
    if seed % 4 == 3:
        # a denominator beyond the integer-key scale: ranks on exact
        # rationals, which tell 1e-1300 from 0
        lines += ["tiny 0 1e-1300", "zero 0 0"]
    items = parse_scores("\n".join(lines) + "\n")
    assert_ranks_like_the_reference(items, (1, max(1, m // 2), m + 3))


def test_rank_matches_the_reference_on_hand_built_items():
    # int and Fraction ends, negatives, lo == hi, and two large coprime
    # denominators whose lcm is past the integer-key scale
    small, smaller = Fraction(1, 2**2200), Fraction(1, 3**1400)
    ends = [
        (0, 1), (Fraction(1, 2), 1), (Fraction(-3, 4), Fraction(-1, 2)), (-2, Fraction(7, 3)),
        (1, 1), (Fraction(1), 1), (-2, -2), (smaller, small), (0, small), (smaller, smaller),
        (Fraction(-1, 2), 0), (Fraction(-3, 4), Fraction(-1, 2)),
    ]
    items = [
        ScoredItem(f"i{n}", str(lo), str(hi), *(Fraction(v).as_integer_ratio() for v in (lo, hi)))
        for n, (lo, hi) in enumerate(ends)
    ]
    assert_ranks_like_the_reference(items, range(1, len(items) + 2))
    scaled = [it for it in items if small not in (it.lo, it.hi) and smaller not in (it.lo, it.hi)]
    assert_ranks_like_the_reference(scaled, range(1, len(scaled) + 2))


@pytest.mark.parametrize("seed", [1, 2])
def test_rank_matches_the_reference_on_the_benchmark_rank_deck(seed):
    # every 50-item scores file of the deck, at every k the deck asks of those files
    files, manifest = deck_builder()("rank", seed)
    fifty = {n for n, text in files.items() if n.startswith("scores") and text.count("\n") == 50}
    argvs = [request["argv"] for request in manifest["deck"] if request["argv"][1] in fifty]
    ks = sorted({int(argv[argv.index("-k") + 1]) for argv in argvs})
    assert len(fifty) == 8 and ks
    for name in sorted(fifty):
        assert_ranks_like_the_reference(parse_scores(files[name]), ks)


def test_an_unreduced_ratio_ranks_with_its_reduced_form():
    (half,) = parse_scores("a 0.50 0.50\n")
    assert (half.lo_ratio, half.hi_ratio) == ((50, 100), (50, 100))
    half_again = ScoredItem("b", "1/2", "1/2", (1, 2), (1, 2))
    items = [half, half_again, ScoredItem("c", "1", "1", (1, 1), (1, 1))]
    assert_ranks_like_the_reference(items, (1, 2, 3))
    assert [tuple(g) for g in rank_items(items, 2, PRIMAL).groups] == [
        (("c",), (("1", "1"),)), (("a", "b"), (("0.50", "0.50"),))
    ]


@pytest.mark.parametrize("denominator", [0, -2, 2.0, Fraction(2)])
@pytest.mark.parametrize("scale", ["integer keys", "past the scale cap"])
def test_rank_rejects_a_denominator_that_is_not_a_positive_int(denominator, scale):
    items = [ScoredItem("a", "0", "1", (0, 1), (1, 1)), ScoredItem("b", "?", "1", (1, denominator), (1, 1))]
    if scale == "past the scale cap":  # the check must not stop where the lcm does
        items += [ScoredItem(f"c{n}", "0", "1", (0, d), (1, 1)) for n, d in enumerate((2**2200, 3**1400))]
    message = f"denominator must be a positive int, got {denominator!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        rank_items(items, 1)


@st.composite
def score_files(draw):
    quarters = st.integers(-4, 8)
    rows = draw(st.lists(st.tuples(quarters, st.integers(0, 6)), min_size=1, max_size=30))
    form = st.integers(0, 3)
    return "".join(
        f"i{i} {score_text(lo, draw(form))} {score_text(lo + width, draw(form))}\n"
        for i, (lo, width) in enumerate(rows)
    )


@settings(max_examples=150)
@given(score_files(), st.integers(1, 32), st.sampled_from(DIRECTIONS))
def test_rank_matches_the_reference_on_drawn_scores(text, k, direction):
    items = parse_scores(text)
    assert emit_json(rank_items(items, k, direction)) == emit_json(
        brute_rank(items, k, direction)
    )


@settings(max_examples=100)
@given(score_files())
def test_scores_round_trip_property(text):
    items = parse_scores(text)
    again = "".join(f"{it.item} {it.lo_text} {it.hi_text}\n" for it in items)
    assert parse_scores(again) == items


@settings(max_examples=100)
@given(posets(), st.data())
def test_ranks_round_trip_property(p, data):
    ranks = {x: data.draw(st.integers(-(10**30), 10**30)) for x in p.elements}
    text = "".join(f"{x} {r}\n" for x, r in ranks.items())
    assert parse_ranks(text, p) == ranks


def test_rank_builds_no_poset(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rank_items must not build or linearise a poset")

    for name, module in list(sys.modules.items()):
        if name == "posetlin" or name.startswith("posetlin."):
            for attr in ("build_poset", "compute_levels"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    rng = SplitMix64(2000)
    lines = []
    for i in range(2000):
        lo = rng.below(10**6)
        hi = lo + rng.below(10**6)
        lines.append(f"i{i} 0.{lo:06d} {hi // 10**6}.{hi % 10**6:06d}")
    items = parse_scores("\n".join(lines) + "\n")
    primal, dual = (rank_items(items, len(items), d) for d in (PRIMAL, DUAL))
    for ranking in (primal, dual):
        assert sorted(x for g in ranking.groups for x in g.items) == sorted(
            it.item for it in items
        )
    # both directions have one class per element of a longest chain
    assert len(primal.groups) == len(dual.groups) > 1


def test_emit_json_for_linearisations(abc_lattice):
    primal = emit_json(compute_levels(abc_lattice, PRIMAL))
    assert primal == '{"direction":"primal","classes":[["bot"],["a"],["b","c"],["top"]]}'
    dual = emit_json(compute_levels(abc_lattice, DUAL))
    assert dual == '{"direction":"dual","classes":[["bot"],["a","c"],["b"],["top"]]}'
    single = emit_json(compute_levels(build_poset(["x"], []), PRIMAL))
    assert single == '{"direction":"primal","classes":[["x"]]}'


def test_emit_json_is_stable(abc_lattice):
    lin = compute_levels(abc_lattice, DUAL)
    assert emit_json(lin) == emit_json(compute_levels(abc_lattice, DUAL))


def test_emit_json_for_class_mappings(abc_lattice):
    lin = compute_levels(abc_lattice, PRIMAL)
    table = parse_mapping(F_MAPPING, abc_lattice, abc_lattice)
    under = extend(table, lin, lin, "under")
    assert emit_json(under) == (
        '{"mode":"under","arity":1,'
        '"domain":{"direction":"primal","classes":[["bot"],["a"],["b","c"],["top"]]},'
        '"codomain":{"direction":"primal","classes":[["bot"],["a"],["b","c"],["top"]]},'
        '"entries":[[[0],0],[[1],3],[[2],2],[[3],3]],'
        '"monotone":false,"antitone":false}'
    )


def test_emit_json_for_rankings():
    ranking = rank_items(parse_scores(THREE_INTERVALS), 1)
    assert emit_json(ranking) == (
        '{"direction":"primal","k":1,'
        '"groups":[{"items":["p"],"intervals":[["0.9","1.0"]]}]}'
    )


def test_emit_json_rejects_other_values():
    with pytest.raises(TypeError):
        emit_json({"not": "supported"})


@pytest.mark.parametrize("n, arity", CAP_ADMITTED)
def test_parse_mapping_admits_the_cap_boundary(n, arity):
    p = antichain(n)
    if n == 0:
        assert parse_mapping(f"arity {arity}\n", p, p) == MappingTable(p, arity, p, {})
    else:
        with pytest.raises(MissingTupleError):
            parse_mapping(f"arity {arity}\n", p, p)


@pytest.mark.parametrize("n, arity", CAP_REJECTED)
def test_parse_mapping_rejects_just_past_the_cap_boundary(n, arity):
    p = antichain(n)
    with pytest.raises(TooLargeError) as caught:
        parse_mapping(f"arity {arity}\n", p, p)
    assert str(caught.value) == cap_message(n, arity)


def test_parse_mapping_decides_the_cap_before_reading_any_row():
    # each row below is a parse error if read: too short, conflicting, no arrow
    p = antichain(3)
    row = " ".join(["x0"] * 20)
    text = f"arity 20\nx0 -> x0\n{row} -> x0\n{row} -> x1\n{row} x2\n"
    with pytest.raises(TooLargeError) as caught:
        parse_mapping(text, p, p)
    assert str(caught.value) == cap_message(3, 20)
    with pytest.raises(ParseError, match="line 2"):  # 3 ** 12 entries are within the cap
        parse_mapping(text.replace("arity 20", "arity 12"), p, p)
