"""Construction, validation and elementary order queries."""

import pytest

from posetlin import (
    ArityMismatchError,
    CycleError,
    DuplicateElementError,
    NotALatticeError,
    UnknownElementError,
    build_poset,
    enumerate_maximal_chains,
)
from helpers import antichain, bounds_bruteforce, chain, corpus, is_lattice_bruteforce

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


def test_is_linear():
    assert chain(3).is_linear()
    assert build_poset(["x"], []).is_linear()
    assert not antichain(2).is_linear()


def test_abc_is_not_linear(abc_lattice):
    assert not abc_lattice.is_linear()


def test_maximal_and_minimal_elements(abc_lattice):
    assert abc_lattice.maximal_elements() == ("top",)
    assert abc_lattice.minimal_elements() == ("bot",)
    assert set(abc_lattice.maximal_elements({"bot", "a", "c"})) == {"a", "c"}
    assert abc_lattice.maximal_elements(set()) == ()
    with pytest.raises(UnknownElementError):
        abc_lattice.maximal_elements({"zz"})


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
