"""Construction, validation and elementary order queries."""

import gc
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetlin.poset
from posetlin import (
    DUAL,
    PRIMAL,
    ArityMismatchError,
    CycleError,
    DuplicateElementError,
    EmptyPosetError,
    NotALatticeError,
    SplitMix64,
    UnknownElementError,
    brute_levels,
    brute_order,
    build_poset,
    compute_levels,
    enumerate_maximal_chains,
    extend,
    linearisations_equivalent,
    parse_poset,
    render_poset,
    satisfies_elcc,
)
from helpers import (
    abc_poset,
    antichain,
    boolean_lattice_3,
    bounds_bruteforce,
    chain,
    corpus,
    cover_walk_layers,
    diamond_poset,
    grid_poset,
    is_lattice_bruteforce,
    naturally_labelled_posets,
    random_table,
    shuffled,
)

ABC_PAIRS = [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")]


def test_singleton_has_empty_strict_order():
    p = build_poset(["x"], [])
    assert p.elements == ("x",)
    assert p.strict_pairs == frozenset()


def test_closure_adds_the_implied_pairs(abc_lattice):
    assert abc_lattice.strict_pairs == frozenset(
        ABC_PAIRS + [("bot", "b"), ("bot", "top"), ("a", "top")]
    )


def test_covers_are_the_transitive_reduction(abc_lattice):
    assert abc_lattice.cover_pairs == frozenset(ABC_PAIRS)


def test_two_cycle_is_rejected():
    with pytest.raises(CycleError):
        build_poset(["x", "y"], [("x", "y"), ("y", "x")])


def test_self_pair_is_rejected():
    with pytest.raises(CycleError):
        build_poset(["x"], [("x", "x")])


def test_cycle_error_names_the_first_declared_element_on_the_cycle():
    # "d" is declared first but sits downstream of the cycle a < b < a,
    # "u" sits upstream of it
    with pytest.raises(CycleError) as excinfo:
        build_poset(["d", "u", "a", "b"], [("u", "a"), ("a", "b"), ("b", "a"), ("a", "d")])
    assert str(excinfo.value) == "declared pairs create an order cycle through 'a'"


def test_duplicate_element_is_rejected():
    with pytest.raises(DuplicateElementError):
        build_poset(["x", "x"], [])


def test_pair_with_undeclared_element_is_rejected():
    with pytest.raises(UnknownElementError):
        build_poset(["x"], [("x", "y")])


@pytest.mark.parametrize("bad", ["", "a b", "a<b", "a#b", "a\tb"])
def test_invalid_names_are_rejected(bad):
    with pytest.raises(ValueError):
        build_poset([bad], [])


def test_every_whitespace_character_is_rejected_in_a_name():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert {"\x1c", "\x85", "\xa0", "\u3000"} <= set(spaces)
    for ch in spaces:
        for name in ("a" + ch + "b", ch, ch + "a", "a" + ch):
            with pytest.raises(ValueError, match="may not contain whitespace"):
                build_poset([name], [])
    for bad in ("", None, 3, b"ab", ("a",)):
        with pytest.raises(ValueError, match="must be a non-empty string"):
            build_poset([bad], [])


@pytest.mark.parametrize("names, error, message", [
    (["a b", "a b"], ValueError, "element name may not contain whitespace, '<' or '#': 'a b'"),
    ([None, "a"], ValueError, "element name must be a non-empty string, got None"),
    (["a", "", "a"], ValueError, "element name must be a non-empty string, got ''"),
    (["a", "a", ""], DuplicateElementError, "duplicate element 'a'"),
    (["a", "a#", "a"], ValueError, "element name may not contain whitespace, '<' or '#': 'a#'"),
    (["a", ["a"]], ValueError, "element name must be a non-empty string, got ['a']"),  # unhashable
])
def test_names_are_checked_in_declaration_order_before_duplicates(names, error, message):
    with pytest.raises(error) as excinfo:
        build_poset(names, [])
    assert type(excinfo.value) is error and str(excinfo.value) == message


@pytest.mark.parametrize("pair, missing", [
    (("y", "x"), "y"),
    (("x", "y"), "y"),
    (("y", "z"), "y"),
])
def test_unknown_element_error_names_the_first_missing_end(pair, missing):
    message = f"unknown element {missing!r} in pair ({pair[0]!r}, {pair[1]!r})"
    with pytest.raises(UnknownElementError) as excinfo:
        build_poset(["x"], [pair])
    assert str(excinfo.value) == message


def test_leq_and_lt(abc_lattice):
    assert abc_lattice.leq("bot", "top")
    assert abc_lattice.lt("bot", "top")
    assert abc_lattice.leq("a", "a")
    assert not abc_lattice.lt("a", "a")
    assert not abc_lattice.leq("top", "bot")


def test_incomparable(abc_lattice):
    assert abc_lattice.incomparable("a", "c")
    assert not abc_lattice.incomparable("a", "b")
    assert not abc_lattice.incomparable("a", "a")


def test_order_queries_reject_unknown_elements(abc_lattice):
    with pytest.raises(UnknownElementError):
        abc_lattice.leq("bot", "zz")
    with pytest.raises(UnknownElementError):
        abc_lattice.incomparable("zz", "bot")
    p = abc_lattice
    for query in (p.above, p.below, p.covers_above, p.covers_below):
        with pytest.raises(UnknownElementError, match="^unknown element 'zz'$"):
            query("zz")


PAIR_QUERIES = {
    "leq": lambda p, x, y: p.leq(x, y),
    "lt": lambda p, x, y: p.lt(x, y),
    "incomparable": lambda p, x, y: p.incomparable(x, y),
    "sup": lambda p, x, y: p.sup(x, y),
    "inf": lambda p, x, y: p.inf(x, y),
    "tuple_leq": lambda p, x, y: p.tuple_leq((x,), (y,)),
}


@pytest.mark.parametrize("query", PAIR_QUERIES)
@pytest.mark.parametrize("pair", [("zz", "bot"), ("bot", "zz"), ("zz", "yy")])
def test_pair_queries_name_the_first_unknown_argument(abc_lattice, query, pair):
    with pytest.raises(UnknownElementError, match="^unknown element 'zz'$"):
        PAIR_QUERIES[query](abc_lattice, *pair)


def test_is_linear():
    assert chain(3).is_linear()
    assert build_poset(["x"], []).is_linear()
    assert not antichain(2).is_linear()
    # a chain given with shuffled redundant pairs, and beside one more element
    rng = SplitMix64(5)
    names = [f"x{i}" for i in range(12)]
    redundant = [(names[i], names[j]) for i in range(12) for j in range(i + 2, 12) if (i + j) % 3]
    pairs = shuffled(rng, list(zip(names, names[1:])) + redundant)
    assert build_poset(shuffled(rng, names), pairs).is_linear()
    assert not build_poset(names + ["y"], pairs + [(names[0], "y")]).is_linear()
    assert not build_poset(names + ["y"], pairs).is_linear()


def test_abc_is_not_linear(abc_lattice):
    assert not abc_lattice.is_linear()


def test_maximal_and_minimal_elements(abc_lattice):
    assert abc_lattice.maximal_elements() == ("top",)
    assert abc_lattice.minimal_elements() == ("bot",)


def test_longest_chain_length(abc_lattice):
    assert abc_lattice.longest_chain_length() == 4
    assert antichain(5).longest_chain_length() == 1
    for n in (1, 2, 7):
        assert chain(n).longest_chain_length() == n
    assert build_poset([], []).longest_chain_length() == 0


def test_is_lattice(abc_lattice, diamond):
    assert diamond.is_lattice()
    assert abc_lattice.is_lattice()
    assert not antichain(2).is_lattice()


def test_sup_and_inf(abc_lattice, diamond):
    assert diamond.sup("a", "b") == "top"
    assert diamond.inf("a", "b") == "bot"
    assert abc_lattice.sup("a", "c") == "top"
    assert abc_lattice.inf("a", "c") == "bot"
    for x in abc_lattice.elements:
        assert abc_lattice.sup(x, x) == x
        assert abc_lattice.inf(x, x) == x


def test_sup_raises_without_a_least_upper_bound():
    pair = antichain(2)
    with pytest.raises(NotALatticeError):
        pair.sup("x0", "x1")
    with pytest.raises(NotALatticeError):
        pair.inf("x0", "x1")


# a, b < c, d: each pair below (above) has two upper (lower) bounds, neither least
BOWTIE = build_poset(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


@pytest.mark.parametrize("p, query, x, y, message", [
    (antichain(2), "sup", "x0", "x1", "no least upper bound for 'x0' and 'x1'"),
    (antichain(2), "inf", "x0", "x1", "no greatest lower bound for 'x0' and 'x1'"),
    (BOWTIE, "sup", "a", "b", "no least upper bound for 'a' and 'b'"),
    (BOWTIE, "inf", "c", "d", "no greatest lower bound for 'c' and 'd'"),
])
def test_a_missing_bound_is_named_in_the_error(p, query, x, y, message):
    with pytest.raises(NotALatticeError) as excinfo:
        getattr(p, query)(x, y)
    assert str(excinfo.value) == message


def test_tuple_leq(abc_lattice):
    assert abc_lattice.tuple_leq(("bot", "a"), ("a", "b"))
    assert not abc_lattice.tuple_leq(("a", "c"), ("c", "a"))
    assert abc_lattice.tuple_leq(("a", "c"), ("a", "c"))
    with pytest.raises(ArityMismatchError):
        abc_lattice.tuple_leq(("a",), ("a", "b"))
    with pytest.raises(UnknownElementError):
        abc_lattice.tuple_leq(("a", "zz"), ("a", "b"))


POSET_CORPUS = corpus(150)


@pytest.mark.parametrize("p", POSET_CORPUS, ids=lambda p: f"n{len(p)}-{len(p.strict_pairs)}e")
def test_closure_is_idempotent(p):
    rebuilt = build_poset(list(p.elements), sorted(p.strict_pairs))
    assert rebuilt.strict_pairs == p.strict_pairs
    assert rebuilt.cover_pairs == p.cover_pairs


@pytest.mark.parametrize("p", POSET_CORPUS, ids=lambda p: f"n{len(p)}-{len(p.strict_pairs)}e")
def test_covers_close_back_to_the_strict_order(p):
    rebuilt = build_poset(list(p.elements), sorted(p.cover_pairs))
    assert rebuilt.strict_pairs == p.strict_pairs


@pytest.mark.parametrize("p", POSET_CORPUS, ids=lambda p: f"n{len(p)}-{len(p.strict_pairs)}e")
def test_exactly_one_order_relation_per_pair(p):
    for x in p.elements:
        for y in p.elements:
            states = [x == y, p.lt(x, y), p.lt(y, x), p.incomparable(x, y)]
            assert states.count(True) == 1


def test_longest_chain_matches_enumerated_chains():
    for p in POSET_CORPUS:
        chains = enumerate_maximal_chains(p)
        expected = max((len(c) for c in chains), default=0)
        assert p.longest_chain_length() == expected


def test_is_lattice_matches_bruteforce_bound_search():
    for p in POSET_CORPUS:
        if len(p) <= 8:
            assert p.is_lattice() == is_lattice_bruteforce(p)


def test_sup_and_inf_match_bruteforce_bound_search():
    for p in POSET_CORPUS:
        if len(p) > 8:
            continue
        for x in p.elements:
            for y in p.elements:
                for query, found in zip((p.sup, p.inf), bounds_bruteforce(p, x, y)):
                    if found:
                        assert [query(x, y)] == found
                    else:
                        with pytest.raises(NotALatticeError):
                            query(x, y)


def generating_set(seed):
    """Seeded (elements, pairs): a random DAG, a chain or a grid by ``seed % 3``.

    The pairs carry redundant pairs (implied by others) and repeated pairs in
    shuffled order, and the elements are declared in shuffled order.
    """
    rng = SplitMix64(seed)
    kind = seed % 3
    if kind == 0:
        n = 1 + rng.below(40)
        names = [f"r{i}" for i in range(n)]
        # every pair along a hidden linear order, with probability 0.2
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.chance(0.2)
        ]
    elif kind == 1:
        n = 1 + rng.below(40)
        names = [f"c{i}" for i in range(n)]
        pairs = list(zip(names, names[1:]))
        pairs += [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 2, n)
            if rng.chance(0.05)
        ]
    else:
        rows, cols = 1 + rng.below(6), 1 + rng.below(6)
        names = [f"g{i}_{j}" for i in range(rows) for j in range(cols)]
        pairs = []
        for i in range(rows):
            for j in range(cols):
                if i + 1 < rows:
                    pairs.append((f"g{i}_{j}", f"g{i + 1}_{j}"))
                if j + 1 < cols:
                    pairs.append((f"g{i}_{j}", f"g{i}_{j + 1}"))
                if i + 1 < rows and j + 1 < cols and rng.chance(0.3):
                    pairs.append((f"g{i}_{j}", f"g{i + 1}_{j + 1}"))
    pairs += [pairs[rng.below(len(pairs))] for _ in range(len(pairs) // 4)]
    return shuffled(rng, names), shuffled(rng, pairs)


def assert_order_is(p, strict, covers):
    """``p``'s pairs and per-element name sets are those of ``strict`` and ``covers``."""
    assert p.strict_pairs == strict
    assert p.cover_pairs == covers
    for x in p.elements:
        assert p.above(x) == {y for w, y in strict if w == x}
        assert p.below(x) == {w for w, y in strict if y == x}
        assert p.covers_above(x) == {y for w, y in covers if w == x}
        assert p.covers_below(x) == {w for w, y in covers if y == x}


@pytest.mark.parametrize("seed", range(7000, 7090))
def test_build_matches_the_warshall_reference(seed):
    elements, pairs = generating_set(seed)
    strict, covers = brute_order(elements, pairs)
    p = build_poset(elements, pairs)
    assert p.elements == tuple(elements)
    assert_order_is(p, strict, covers)


@st.composite
def generating_pairs(draw):
    n = draw(st.integers(0, 12))
    names = [f"n{i}" for i in range(n)]
    if not n:
        return names, []
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=30))
    if draw(st.booleans()):
        # keep the pairs that rise along a drawn linear order: no cycle
        height = draw(st.permutations(range(n)))
        pairs = [(i, j) for i, j in pairs if height[i] < height[j]]
    return names, [(names[i], names[j]) for i, j in pairs]


@settings(max_examples=200)
@given(generating_pairs())
def test_build_matches_the_warshall_reference_on_drawn_pairs(drawn):
    elements, pairs = drawn
    try:
        expected = brute_order(elements, pairs)
    except CycleError as exc:
        with pytest.raises(CycleError) as excinfo:
            build_poset(elements, pairs)
        assert str(excinfo.value) == str(exc)
        return
    assert_order_is(build_poset(elements, pairs), *expected)


def _without(p, x):
    """``p`` with the element ``x`` removed."""
    return build_poset(
        [y for y in p.elements if y != x],
        [pair for pair in p.strict_pairs if x not in pair],
    )


def _doubled_top(n):
    """A chain of ``n`` elements with a second, incomparable top element."""
    names = [f"x{i}" for i in range(n)]
    return build_poset(names + ["t"], list(zip(names, names[1:])) + [(names[-2], "t")])


def named_shapes():
    """Grids up to 5x5, the boolean lattice on 3 atoms and chains up to 20,
    each beside a non-lattice of the same shape."""
    shapes = []
    for rows in range(1, 6):
        for cols in range(rows, 6):
            grid = grid_poset(rows, cols)
            shapes.append((f"grid{rows}x{cols}", grid))
            if rows > 1:
                shapes.append((f"grid{rows}x{cols}-top", _without(grid, f"g{rows - 1}_{cols - 1}")))
    cube = boolean_lattice_3()
    # without its bottom the cube still has every join, but no meets
    shapes += [("boolean3", cube), ("boolean3-bottom", _without(cube, "e"))]
    for n in (1, 2, 3, 5, 8, 13, 20):
        shapes.append((f"chain{n}", chain(n)))
        if n > 1:
            shapes.append((f"chain{n}-doubled-top", _doubled_top(n)))
    return shapes


NAMED_SHAPES = named_shapes()


@pytest.mark.parametrize("p", [p for _, p in NAMED_SHAPES], ids=[n for n, _ in NAMED_SHAPES])
def test_is_lattice_matches_bruteforce_on_named_shapes(p):
    assert p.is_lattice() == is_lattice_bruteforce(p)


@pytest.mark.parametrize("p", [p for _, p in NAMED_SHAPES], ids=[n for n, _ in NAMED_SHAPES])
def test_sup_and_inf_match_bruteforce_on_named_shapes(p):
    for x in p.elements:
        for y in p.elements:
            for query, found in zip((p.sup, p.inf), bounds_bruteforce(p, x, y)):
                if found:
                    assert [query(x, y)] == found
                else:
                    with pytest.raises(NotALatticeError):
                        query(x, y)


@st.composite
def posets_with_a_top(draw):
    """A drawn DAG on up to 8 elements below an added top, sometimes above an
    added bottom as well: only the meet test can reject it."""
    n = draw(st.integers(0, 8))
    names = [f"n{i}" for i in range(n)]
    index = st.integers(0, max(n - 1, 0))
    drawn = draw(st.lists(st.tuples(index, index), max_size=20))
    pairs = [(names[i], names[j]) for i, j in drawn if i < j]
    if draw(st.booleans()):
        names, pairs = ["bot"] + names, pairs + [("bot", x) for x in names]
    return build_poset(names + ["top"], pairs + [(x, "top") for x in names])


@settings(max_examples=200)
@given(posets_with_a_top())
def test_is_lattice_matches_bruteforce_on_drawn_posets_with_a_top(p):
    assert p.is_lattice() == is_lattice_bruteforce(p)


def test_named_shapes_include_lattices_and_non_lattices():
    verdicts = {name: p.is_lattice() for name, p in NAMED_SHAPES}
    assert verdicts["grid5x5"] and verdicts["boolean3"] and verdicts["chain20"]
    assert not verdicts["grid5x5-top"] and not verdicts["boolean3-bottom"]
    assert not verdicts["chain20-doubled-top"]
    # two-digit indices name distinct elements: (1, 10) is g1_10 and (11, 0) g11_0
    grid = grid_poset(12, 12)
    assert len(grid) == 144 and grid.is_lattice() and satisfies_elcc(grid)


@st.composite
def posets_with_a_top_and_a_bottom(draw):
    """A drawn DAG on up to 8 elements between an added top and bottom, all
    declared in a drawn order, so any row may be the last one with a later
    incomparable element.  A drawn prefix is a chain, so rows get skipped,
    and the first four elements may form a bowtie (two below two), the
    smallest shape with a top and a bottom that is not a lattice."""
    n = draw(st.integers(0, 8))
    names = [f"n{i}" for i in range(n)]
    index = st.integers(0, max(n - 1, 0))
    drawn = draw(st.lists(st.tuples(index, index), max_size=12))
    pairs = [(names[i], names[j]) for i, j in drawn if i < j]
    pairs += list(zip(names, names[1 : draw(st.integers(0, n))]))
    if n >= 4 and draw(st.booleans()):
        pairs += [(names[i], names[j]) for i in (0, 1) for j in (2, 3)]
    pairs += [("bot", x) for x in names] + [(x, "top") for x in names] + [("bot", "top")]
    order = draw(st.permutations(names + ["bot", "top"]))
    return build_poset(order, pairs)


@settings(max_examples=300)
@given(posets_with_a_top_and_a_bottom())
def test_is_lattice_matches_bruteforce_on_drawn_posets_with_a_top_and_a_bottom(p):
    assert p.is_lattice() == is_lattice_bruteforce(p)


def _chain_around(n, middle, pairs):
    """A chain of ``n`` elements with ``middle`` inserted between its two
    halves, ordered among themselves by ``pairs``."""
    low = [f"x{i}" for i in range(n // 2)]
    high = [f"x{i}" for i in range(n // 2, n)]
    steps = list(zip(low, low[1:])) + list(zip(high, high[1:])) + list(pairs)
    steps += [(low[-1], m) for m in middle] + [(m, high[0]) for m in middle]
    return build_poset(low + list(middle) + high, steps)


def test_is_lattice_on_long_chains_around_a_diamond_and_a_bowtie():
    # almost every row has no later incomparable element and is skipped;
    # the few that are not decide the answer
    assert chain(3000).is_lattice()
    assert _chain_around(3000, ["a", "b"], []).is_lattice()
    bowtie = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    assert not _chain_around(3000, ["a", "b", "c", "d"], bowtie).is_lattice()
    assert not _doubled_top(3000).is_lattice()


@st.composite
def redundant_generating_pairs(draw):
    """Pairs rising along a drawn linear order, shuffled, with some drawn
    twice and, for some two that chain, the pair they imply."""
    n = draw(st.integers(0, 12))
    names = [f"n{i}" for i in range(n)]
    if not n:
        return names, []
    height = draw(st.permutations(range(n)))
    index = st.integers(0, n - 1)
    pairs = [(i, j) for i, j in draw(st.lists(st.tuples(index, index), max_size=30))
             if height[i] < height[j]]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=6))
        implied = [(i, k) for i, j in pairs for m, k in pairs if j == m]
        if implied:
            pairs += draw(st.lists(st.sampled_from(implied), max_size=6))
    pairs = draw(st.permutations(pairs))
    return names, [(names[i], names[j]) for i, j in pairs]


@settings(max_examples=300)
@given(redundant_generating_pairs())
def test_layers_over_the_generating_pairs_equal_the_cover_walks(drawn):
    elements, pairs = drawn
    p = build_poset(elements, pairs)
    if not elements:  # an empty poset has no levels in either direction
        for q in (p, p._dual()):
            with pytest.raises(EmptyPosetError, match="^cannot linearise an empty poset$"):
                q._layers()
        return
    covers = brute_order(elements, pairs)[1]
    for upward in (True, False):
        assert (p if upward else p._dual())._layers() == cover_walk_layers(elements, covers, upward)


def _bitsets(elements, pairs):
    """``rows[i]`` has bit ``j`` set iff ``(elements[i], elements[j])`` is in ``pairs``."""
    index = {x: i for i, x in enumerate(elements)}
    rows = [0] * len(elements)
    for x, y in pairs:
        rows[index[x]] |= 1 << index[y]
    return rows


@settings(max_examples=300)
@given(redundant_generating_pairs())
def test_each_closure_half_equals_the_brute_order(drawn):
    elements, pairs = drawn
    p = build_poset(elements, pairs)
    strict, covers = brute_order(elements, pairs)
    assert p._closure() == (_bitsets(elements, strict), _bitsets(elements, covers))
    dual = p._dual()
    assert dual._closure() == (
        _bitsets(elements, {(y, x) for x, y in strict}),
        _bitsets(elements, {(y, x) for x, y in covers}),
    )
    assert dual.elements == p.elements
    assert p not in gc.get_referents(dual)  # no cycle for the collector to break


def test_every_naturally_labelled_poset_up_to_six_elements():
    counts = {}
    for elements, pairs in naturally_labelled_posets(6):
        counts[len(elements)] = counts.get(len(elements), 0) + 1
        p = build_poset(elements, pairs)
        for direction in (PRIMAL, DUAL):
            assert compute_levels(p, direction) == brute_levels(p, direction), (elements, pairs)
        lengths = {len(c) for c in enumerate_maximal_chains(p)}
        assert satisfies_elcc(p) == (len(lengths) == 1), (elements, pairs)
        assert p.is_lattice() == is_lattice_bruteforce(p), (elements, pairs)
        strict, covers = brute_order(elements, pairs)
        n = len(elements)
        assert p.is_linear() == (len(strict) == n * (n - 1) // 2), (elements, pairs)
        for x in elements:
            assert p.below(x) == {a for a, b in strict if b == x}, (elements, pairs, x)
            assert p.covers_below(x) == {a for a, b in covers if b == x}, (elements, pairs, x)
    assert counts == {1: 1, 2: 2, 3: 7, 4: 40, 5: 357, 6: 4824}


def test_extremal_elements_are_those_in_no_strict_pair_above_or_below():
    cases = [*naturally_labelled_posets(4), *map(generating_set, range(60))]
    for elements, pairs in cases:
        p = build_poset(elements, pairs)
        strict = brute_order(elements, pairs)[0]
        assert p.maximal_elements() == tuple(x for x in p if all(a != x for a, _ in strict))
        assert p.minimal_elements() == tuple(x for x in p if all(b != x for _, b in strict))


def _count_closures(monkeypatch):
    """Record each call of the closure kernel by the generating lists it
    walks: a poset's ``_succ`` for its upper half, its ``_pred`` for its
    dual's, which is its lower half."""
    calls = []
    kernel = posetlin.poset._closure_and_covers

    def counted(order, succ):
        calls.append(succ)
        return kernel(order, succ)

    monkeypatch.setattr(posetlin.poset, "_closure_and_covers", counted)
    return calls


def _halves(calls, p):
    """The recorded calls that built a half of ``p``, as ``"up"`` or ``"down"``."""
    return ["up" if s is p._succ else "down" for s in calls if s is p._succ or s is p._pred]


def test_levels_and_chain_length_never_build_the_closure(monkeypatch):
    text = render_poset(chain(5))  # rendering reads the covers
    calls = _count_closures(monkeypatch)
    for p in (abc_poset(), grid_poset(3, 4), chain(50), parse_poset(text)):
        primal = compute_levels(p, PRIMAL)
        primal.classes_ascending()
        compute_levels(p, DUAL).classes_ascending()
        linearisations_equivalent(p)
        p.longest_chain_length()
        p.is_linear()
        p.maximal_elements()
        p.minimal_elements()
        table = random_table(p, diamond_poset(), 1)
        extend(table, primal, compute_levels(table.codomain), "over")
    assert calls == []


def test_is_lattice_rules_out_two_tops_or_two_bottoms_before_any_closure(monkeypatch):
    calls = _count_closures(monkeypatch)
    two_bottoms = build_poset(["a", "b", "top"], [("a", "top"), ("b", "top")])
    for p in (_doubled_top(6), two_bottoms, antichain(3)):
        assert not p.is_lattice()
    assert calls == []


ORDER_QUERIES = {  # each query and the closure halves it builds first
    "is_lattice": (lambda p: p.is_lattice(), ["up", "down"]),
    "is_linear": (lambda p: p.is_linear(), []),
    "leq": (lambda p: p.leq("bot", "top"), ["up"]),
    "satisfies_elcc": (satisfies_elcc, ["up"]),
    "above": (lambda p: p.above("a"), ["up"]),
    "below": (lambda p: p.below("a"), ["down"]),
    "minimal_elements": (lambda p: p.minimal_elements(), []),
    "inf": (lambda p: p.inf("a", "c"), ["down"]),
}


@pytest.mark.parametrize("query", ORDER_QUERIES)
def test_the_first_order_query_builds_the_closure_once(monkeypatch, query):
    calls = _count_closures(monkeypatch)
    p = abc_poset()
    first, halves = ORDER_QUERIES[query]
    first(p)
    assert _halves(calls, p) == halves
    for other, _ in ORDER_QUERIES.values():
        other(p)
    assert sorted(_halves(calls, p)) == ["down", "up"]
    assert len(calls) == 2


@pytest.mark.parametrize("first", ["is_monotone", "is_antitone"])
def test_table_checks_build_each_posets_closure_once(monkeypatch, first):
    calls = _count_closures(monkeypatch)
    table = random_table(abc_poset(), diamond_poset(), 3, arity=2)
    getattr(table, first)()
    assert _halves(calls, table.domain) == ["up"]  # the upper covers
    assert _halves(calls, table.codomain) == ["up" if first == "is_monotone" else "down"]
    assert len(calls) == 2
    table.is_monotone()
    table.is_antitone()
    assert _halves(calls, table.domain) == ["up"]
    assert sorted(_halves(calls, table.codomain)) == ["down", "up"]
    assert len(calls) == 3
