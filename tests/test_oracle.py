"""Brute-force references and the seeded poset generator."""

import gc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlin import (
    DUAL,
    MAX_BRUTE_RANK,
    PRIMAL,
    CycleError,
    EmptyInputError,
    EmptyPosetError,
    MappingTable,
    TooLargeError,
    brute_extend,
    brute_levels,
    brute_order,
    brute_preserves,
    brute_rank,
    build_poset,
    compute_levels,
    count_linear_extensions,
    enumerate_maximal_chains,
    parse_scores,
    random_poset,
)
from helpers import antichain, brute_levels_pairwise, chain, corpus, corpus_params


def test_brute_levels_on_the_worked_example(abc_lattice):
    primal = brute_levels(abc_lattice, PRIMAL)
    assert [set(level) for level in primal.levels] == [
        {"top"}, {"b", "c"}, {"a"}, {"bot"},
    ]
    dual = brute_levels(abc_lattice, DUAL)
    assert [set(level) for level in dual.levels] == [
        {"bot"}, {"a", "c"}, {"b"}, {"top"},
    ]


def test_brute_levels_on_an_antichain():
    lin = brute_levels(antichain(3), PRIMAL)
    assert [set(level) for level in lin.levels] == [{"x0", "x1", "x2"}]


def test_brute_levels_guards():
    with pytest.raises(EmptyPosetError):
        brute_levels(build_poset([], []), PRIMAL)
    with pytest.raises(TooLargeError):
        brute_levels(antichain(65), PRIMAL)


def test_brute_levels_agrees_with_compute_levels_everywhere():
    for p in corpus(250):
        for direction in (PRIMAL, DUAL):
            assert brute_levels(p, direction) == compute_levels(p, direction)


def _assert_same_as_pairwise(p):
    for direction in (PRIMAL, DUAL):
        got, want = brute_levels(p, direction), brute_levels_pairwise(p, direction)
        assert got == want
        # equal frozensets built in the same order print alike
        assert repr(got) == repr(want)


def test_brute_levels_matches_its_pairwise_form_on_the_criterion_4_corpus():
    for seed, size, prob in corpus_params(1000):
        _assert_same_as_pairwise(random_poset(seed, size, prob))


@st.composite
def drawn_posets(draw, max_size=24):
    """Posets on up to ``max_size`` elements in a drawn declaration order,
    with generating pairs drawn along a hidden height."""
    n = draw(st.integers(1, max_size))
    names = [f"e{i}" for i in draw(st.permutations(range(n)))]
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    return build_poset(names, [(f"e{i}", f"e{j}") for i, j in pairs if i < j])


@settings(max_examples=150)
@given(drawn_posets())
def test_brute_levels_matches_its_pairwise_form_on_drawn_posets(p):
    _assert_same_as_pairwise(p)


def test_brute_levels_matches_its_pairwise_form_at_the_cap():
    _assert_same_as_pairwise(antichain(64))
    _assert_same_as_pairwise(chain(64))
    names = [f"e{i}" for i in range(64)]
    wide = [(names[i], names[j]) for i in range(64) for j in range(i + 1, 64) if (i ^ j) % 5 == 1]
    _assert_same_as_pairwise(build_poset(names[::-1], wide))


def test_maximal_chain_enumeration(abc_lattice, diamond):
    assert enumerate_maximal_chains(abc_lattice) == [
        ("bot", "a", "b", "top"),
        ("bot", "c", "top"),
    ]
    assert enumerate_maximal_chains(diamond) == [
        ("bot", "a", "top"),
        ("bot", "b", "top"),
    ]
    assert enumerate_maximal_chains(chain(4)) == [("x0", "x1", "x2", "x3")]
    assert enumerate_maximal_chains(antichain(3)) == [("x0",), ("x1",), ("x2",)]


def test_maximal_chain_enumeration_is_sorted_and_duplicate_free():
    for p in corpus(120):
        chains = enumerate_maximal_chains(p)
        keyed = [tuple(p.position(x) for x in c) for c in chains]
        assert keyed == sorted(keyed)
        assert len(set(keyed)) == len(keyed)


def test_enumerated_chains_are_maximal_chains():
    for p in corpus(120):
        chains = set(enumerate_maximal_chains(p))
        for c in chains:
            for x, y in zip(c, c[1:]):
                assert p.lt(x, y)
            members = set(c)
            for z in p.elements:
                if z not in members:
                    # adding z anywhere must break the chain property
                    assert not all(
                        p.lt(x, z) or p.lt(z, x) for x in members
                    )


def test_chain_enumeration_cap():
    with pytest.raises(TooLargeError):
        enumerate_maximal_chains(antichain(15))


def test_brute_preserves_cap():
    table = {(i,): 0 for i in range(4097)}
    with pytest.raises(TooLargeError):
        brute_preserves(table, lambda i, j: i <= j, lambda u, v: u <= v)


def test_brute_extend_on_the_worked_example(abc_lattice):
    # f sends bot to bot, c to c and the rest to top; primal classes, least
    # first: [bot], [a], [b, c], [top], so the class of b and c meets top and c
    f = {("bot",): "bot", ("a",): "top", ("b",): "top", ("c",): "c", ("top",): "top"}
    table = MappingTable(abc_lattice, 1, abc_lattice, f)
    lin = compute_levels(abc_lattice, PRIMAL)
    over = brute_extend(table, lin, lin, "over")
    under = brute_extend(table, lin, lin, "under")
    bc = lin.project("b")
    assert (over(bc), under(bc)) == (lin.project("top"), lin.project("c"))
    assert over.mode == "over" and over.arity == 1


def test_brute_extend_guards(abc_lattice):
    lin = compute_levels(abc_lattice, PRIMAL)
    table = MappingTable(abc_lattice, 1, abc_lattice, {(x,): x for x in abc_lattice.elements})
    with pytest.raises(ValueError, match="mode"):
        brute_extend(table, lin, lin, "sideways")
    # 5 ** 5 = 3125 entries are within the cap, 5 ** 6 = 15625 are not
    keys = product(abc_lattice.elements, repeat=6)
    big = MappingTable(abc_lattice, 6, abc_lattice, dict.fromkeys(keys, "bot"))
    with pytest.raises(TooLargeError, match="4096"):
        brute_extend(big, lin, lin, "over")


def test_brute_order_on_the_worked_example(abc_lattice):
    covers = [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")]
    strict, cover = brute_order(abc_lattice.elements, covers + [("bot", "top")])
    assert strict == abc_lattice.strict_pairs
    assert cover == frozenset(covers)
    with pytest.raises(CycleError, match="'y'"):
        brute_order(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "y")])


def test_brute_order_cap():
    with pytest.raises(TooLargeError):
        brute_order([f"x{i}" for i in range(65)], [])


def test_brute_rank_cap():
    # duplicates do not count towards the cap, distinct intervals do
    rows = "".join(f"i{i} 0 {i % MAX_BRUTE_RANK}\n" for i in range(2 * MAX_BRUTE_RANK))
    assert len(brute_rank(parse_scores(rows), 1).groups) == 1
    with pytest.raises(TooLargeError, match="distinct intervals"):
        brute_rank(parse_scores(rows + f"x 0 {MAX_BRUTE_RANK}\n"), 1)


def test_brute_rank_guards():
    items = parse_scores("a 0 1\n")
    with pytest.raises(ValueError, match="k must be positive"):
        brute_rank(items, 0)
    with pytest.raises(EmptyInputError):
        brute_rank([], 1)


def test_linear_extension_counts():
    assert count_linear_extensions(antichain(4)) == 24
    for n in (1, 3, 6):
        assert count_linear_extensions(chain(n)) == 1


def test_linear_extension_count_of_the_worked_example(abc_lattice, diamond):
    # three placements of c between bot and top, one relative order of a, b
    assert count_linear_extensions(abc_lattice) == 3
    assert count_linear_extensions(diamond) == 2


def test_linear_extension_count_cap():
    with pytest.raises(TooLargeError):
        count_linear_extensions(antichain(9))


@pytest.mark.parametrize("reference", [enumerate_maximal_chains, count_linear_extensions])
def test_recursive_references_leave_no_reference_cycles(reference):
    # a nested recursive function refers to itself through its closure, so
    # each call left garbage that only the cyclic collector could free
    p = random_poset(3, 8, 0.3)
    gc.collect()
    gc.disable()
    try:
        reference(p)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_flattened_classes_form_a_linear_extension():
    for p in corpus(120):
        for direction in (PRIMAL, DUAL):
            flat = [x for cls in compute_levels(p, direction).classes_ascending() for x in cls]
            pos = {x: i for i, x in enumerate(flat)}
            assert all(pos[x] < pos[y] for x, y in p.strict_pairs)


def test_random_poset_is_reproducible():
    p = random_poset(42, 6, 0.3)
    assert p == random_poset(42, 6, 0.3)
    assert p.elements == ("n0", "n1", "n2", "n3", "n4", "n5")
    assert p.strict_pairs == frozenset(
        [
            ("n0", "n1"), ("n0", "n5"), ("n2", "n1"),
            ("n3", "n0"), ("n3", "n1"), ("n3", "n5"),
            ("n4", "n0"), ("n4", "n1"), ("n4", "n5"),
        ]
    )


def test_random_poset_extremes():
    assert len(random_poset(3, 1, 0.5)) == 1
    for size in range(1, 13):
        assert not random_poset(size, size, 0.0).strict_pairs
        full = random_poset(size, size, 1.0)
        assert full.is_linear()
        assert full.longest_chain_length() == size


def test_random_poset_argument_ranges():
    with pytest.raises(ValueError):
        random_poset(1, 0, 0.5)
    with pytest.raises(ValueError):
        random_poset(1, 13, 0.5)
    with pytest.raises(ValueError):
        random_poset(1, 5, 1.5)
