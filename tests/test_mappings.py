"""Mapping tables, class extension, and impossibility witnesses."""

import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlin import (
    DIRECTIONS,
    DUAL,
    PRIMAL,
    ArityMismatchError,
    ClassMapping,
    Linearisation,
    LinearLatticeError,
    MappingTable,
    MissingTupleError,
    MixedArityError,
    NotALatticeError,
    PosetMismatchError,
    RanksNotOrderPreservingError,
    SplitMix64,
    TooLargeError,
    UnknownElementError,
    brute_extend,
    brute_levels,
    brute_order,
    brute_preserves,
    build_poset,
    compute_levels,
    emit_json,
    extend,
    extend_all,
    impossibility_witness,
    linearisations_equivalent,
    random_poset,
)
from posetlin.mappings import MODES
from helpers import (
    CAP_ADMITTED,
    CAP_REJECTED,
    EDGE_PROBS,
    antichain,
    boolean_lattice_3,
    cap_message,
    chain,
    coincidence_witness,
    corpus,
    emit_class_mapping_composed,
    grid_poset,
    naturally_labelled_posets,
    random_antitone_table,
    random_monotone_table,
    random_table,
    sandwiched,
)


def f_table(p):
    """Monotone map sending everything except bot and c to top."""
    return MappingTable(
        p, 1, p,
        {("bot",): "bot", ("c",): "c", ("top",): "top", ("a",): "top", ("b",): "top"},
    )


def g_table(p):
    """Antitone map sending everything except bot and c to bot."""
    return MappingTable(
        p, 1, p,
        {("bot",): "top", ("c",): "c", ("top",): "bot", ("a",): "bot", ("b",): "bot"},
    )


def identity_table(p):
    return MappingTable(p, 1, p, {(x,): x for x in p.elements})


def test_table_must_be_total(abc_lattice):
    with pytest.raises(MissingTupleError, match="top"):
        MappingTable(abc_lattice, 1, abc_lattice, {(x,): x for x in ["bot", "a", "b", "c"]})


def test_a_table_compares_unequal_to_what_is_not_a_table(abc_lattice):
    table = identity_table(abc_lattice)
    assert table.__eq__(abc_lattice) is NotImplemented
    assert table != abc_lattice and table != table.table
    assert table == identity_table(abc_lattice)


def test_table_rejects_unknown_elements(abc_lattice):
    with pytest.raises(UnknownElementError):
        MappingTable(abc_lattice, 1, abc_lattice, {("zz",): "bot"})
    with pytest.raises(UnknownElementError):
        MappingTable(abc_lattice, 1, abc_lattice, {(x,): "zz" for x in abc_lattice.elements})


def test_table_rejects_wrong_tuple_width(abc_lattice):
    with pytest.raises(ArityMismatchError):
        MappingTable(abc_lattice, 2, abc_lattice, {("a",): "a"})


def test_table_rejects_nonpositive_arity(abc_lattice):
    with pytest.raises(ValueError):
        MappingTable(abc_lattice, 0, abc_lattice, {})


def test_table_entry_cap(abc_lattice):
    with pytest.raises(TooLargeError):
        MappingTable(abc_lattice, 9, abc_lattice, {})
    # 3 ** 20000 has 9,543 digits: formatting it once broke the interpreter's
    # 4300-digit limit instead of reporting the cap
    p = build_poset(["x", "y", "z"], [])
    with pytest.raises(TooLargeError) as caught:
        MappingTable(p, 20000, p, {})
    assert str(caught.value) == (
        "mapping table of arity 20000 over 3 domain elements exceeds the cap of 1000000 entries"
    )
    # without the cap, listing the first missing tuple of 3 ** 10**6 built a
    # three-million-character message
    with pytest.raises(TooLargeError, match="exceeds the cap of 1000000 entries"):
        MappingTable(p, 10**6, p, {})


@pytest.mark.parametrize("n, arity", CAP_ADMITTED)
def test_table_cap_admits_its_boundary(n, arity):
    p = antichain(n)
    if n == 0:
        assert repr(MappingTable(p, arity, p, {})) == f"MappingTable(arity={arity}, 0 entries)"
    else:
        with pytest.raises(MissingTupleError):
            MappingTable(p, arity, p, {})


@pytest.mark.parametrize("n, arity", CAP_REJECTED)
def test_table_cap_rejects_just_past_its_boundary(n, arity):
    p = antichain(n)
    with pytest.raises(TooLargeError) as caught:
        MappingTable(p, arity, p, {})
    assert str(caught.value) == cap_message(n, arity)


def test_monotonicity_of_the_worked_examples(abc_lattice):
    f = f_table(abc_lattice)
    g = g_table(abc_lattice)
    assert f.is_monotone() and not f.is_antitone()
    assert g.is_antitone() and not g.is_monotone()
    assert identity_table(abc_lattice).is_monotone()


def test_under_extension_of_f_is_not_monotone(abc_lattice):
    lin = compute_levels(abc_lattice, PRIMAL)
    under = extend(f_table(abc_lattice), lin, lin, "under")
    # levels: 0 = {top}, 1 = {b, c}, 2 = {a}, 3 = {bot}
    assert under.table == {(0,): 0, (1,): 1, (2,): 0, (3,): 3}
    assert not under.is_monotone()
    assert not under.is_antitone()


def test_over_extension_of_f_is_monotone(abc_lattice):
    lin = compute_levels(abc_lattice, PRIMAL)
    over = extend(f_table(abc_lattice), lin, lin, "over")
    assert over.table == {(0,): 0, (1,): 0, (2,): 0, (3,): 3}
    assert over.is_monotone()


def test_over_extension_of_g_is_not_antitone(abc_lattice):
    lin = compute_levels(abc_lattice, PRIMAL)
    over = extend(g_table(abc_lattice), lin, lin, "over")
    assert over.table == {(0,): 3, (1,): 1, (2,): 3, (3,): 0}
    assert not over.is_antitone()


def test_constant_class_mapping_is_monotone_and_antitone(abc_lattice):
    lin = compute_levels(abc_lattice, PRIMAL)
    constant = MappingTable(abc_lattice, 1, abc_lattice, {(x,): "c" for x in abc_lattice})
    cm = extend(constant, lin, lin, "over")
    assert cm.is_monotone() and cm.is_antitone()


def test_extend_rejects_bad_mode_and_foreign_linearisations(abc_lattice, diamond):
    lin = compute_levels(abc_lattice, PRIMAL)
    other = compute_levels(diamond, PRIMAL)
    f = f_table(abc_lattice)
    with pytest.raises(ValueError):
        extend(f, lin, lin, "sideways")
    with pytest.raises(PosetMismatchError):
        extend(f, other, lin, "over")
    with pytest.raises(PosetMismatchError):
        extend(f, lin, other, "over")


def test_extend_all_matches_componentwise_extension(abc_lattice):
    lin = compute_levels(abc_lattice, PRIMAL)
    f = f_table(abc_lattice)
    g = g_table(abc_lattice)
    assert extend_all([f], lin, lin, "over") == [extend(f, lin, lin, "over")]
    twice = extend_all([f, f], lin, lin, "over")
    assert twice[0] == twice[1] == extend(f, lin, lin, "over")
    mixed = extend_all([f, g], lin, lin, "under")
    assert mixed[0] == extend(f, lin, lin, "under")
    assert mixed[1] == extend(g, lin, lin, "under")


def test_extend_all_rejects_mixed_components(abc_lattice, diamond):
    lin = compute_levels(abc_lattice, PRIMAL)
    f = f_table(abc_lattice)
    pair_table = MappingTable(
        abc_lattice, 2, abc_lattice,
        {(x, y): "bot" for x in abc_lattice for y in abc_lattice},
    )
    with pytest.raises(MixedArityError):
        extend_all([f, pair_table], lin, lin, "over")
    other = identity_table(diamond)
    with pytest.raises(PosetMismatchError):
        extend_all([f, other], lin, lin, "over")
    with pytest.raises(ValueError):
        extend_all([], lin, lin, "over")


def test_collapsed_witness_on_the_diamond(diamond):
    witness = impossibility_witness(diamond, {"bot": 0, "a": 1, "b": 1, "top": 2})
    assert witness.case == "collapsed"
    assert witness.pair == ("a", "b")
    assert {x: witness.witness_map(x) for x in diamond.elements} == {
        "bot": "a", "a": "a", "b": "top", "top": "top",
    }
    assert witness.witness_map.is_monotone()
    assert witness.recheck()


def test_ordered_witness_on_the_diamond(diamond):
    witness = impossibility_witness(diamond, {"bot": 0, "a": 1, "b": 2, "top": 3})
    assert witness.case == "ordered"
    assert witness.pair == ("a", "b")
    assert {x: witness.witness_map(x) for x in diamond.elements} == {
        "bot": "bot", "a": "b", "b": "a", "top": "top",
    }
    assert witness.witness_map.is_monotone()
    assert witness.recheck()


def test_recheck_fails_once_the_witness_map_is_not_monotone(diamond):
    witness = impossibility_witness(diamond, {"bot": 0, "a": 1, "b": 2, "top": 3})
    # still swaps the pair, as the witness map does, but turns the whole order upside down
    upside_down = MappingTable(
        diamond, 1, diamond, {("bot",): "top", ("a",): "b", ("b",): "a", ("top",): "bot"},
    )
    assert not upside_down.is_monotone()
    assert not witness._replace(witness_map=upside_down).recheck()


def test_witness_orients_the_pair_by_rank(diamond):
    witness = impossibility_witness(diamond, {"bot": 0, "a": 2, "b": 1, "top": 3})
    assert witness.pair == ("b", "a")
    assert witness.recheck()


def test_witness_takes_the_first_incomparable_pair_in_declaration_order(abc_lattice):
    # "bot" is comparable to every element, and "a" to "b" but not to "c"
    witness = impossibility_witness(abc_lattice, {"bot": 0, "a": 1, "b": 2, "c": 1, "top": 3})
    assert witness.pair == ("a", "c")
    assert witness.case == "collapsed"
    assert witness.recheck()


def test_witness_rejects_linear_lattices():
    with pytest.raises(LinearLatticeError):
        impossibility_witness(chain(3), {"x0": 0, "x1": 1, "x2": 2})


def test_witness_rejects_non_lattices():
    pair = antichain(2)
    with pytest.raises(NotALatticeError):
        impossibility_witness(pair, {"x0": 0, "x1": 0})


def test_witness_rejects_rank_violations(diamond):
    with pytest.raises(RanksNotOrderPreservingError):
        impossibility_witness(diamond, {"bot": 5, "a": 1, "b": 1, "top": 2})
    with pytest.raises(RanksNotOrderPreservingError):
        impossibility_witness(diamond, {"bot": 0, "a": 0, "b": 1, "top": 2})


def test_witness_rejects_incomplete_or_foreign_ranks(diamond):
    with pytest.raises(UnknownElementError):
        impossibility_witness(diamond, {"bot": 0, "a": 1, "b": 1})
    with pytest.raises(UnknownElementError):
        impossibility_witness(diamond, {"bot": 0, "a": 1, "b": 1, "top": 2, "zz": 9})


SMALL = [p for p in corpus(60, max_size=6, seed_base=7000)]
PAIRS = [(SMALL[i], SMALL[(i + 11) % len(SMALL)]) for i in range(len(SMALL))]


def test_under_and_over_extensions_sandwich_every_table():
    for i, (dom, cod) in enumerate(PAIRS):
        table = random_table(dom, cod, seed=300 + i)
        for ddir in (PRIMAL, DUAL):
            for cdir in (PRIMAL, DUAL):
                assert sandwiched(
                    table, compute_levels(dom, ddir), compute_levels(cod, cdir)
                )


def test_sandwich_holds_for_binary_tables_too():
    small_pairs = [(d, c) for d, c in PAIRS if len(d) <= 4][:10]
    for i, (dom, cod) in enumerate(small_pairs):
        table = random_table(dom, cod, seed=800 + i, arity=2)
        assert sandwiched(
            table, compute_levels(dom, PRIMAL), compute_levels(cod, PRIMAL)
        )


def test_sandwich_holds_for_ternary_tables_too():
    small_pairs = [(d, c) for d, c in PAIRS if len(d) <= 3][:10]
    for i, (dom, cod) in enumerate(small_pairs):
        table = random_table(dom, cod, seed=850 + i, arity=3)
        for ddir, cdir in product(DIRECTIONS, DIRECTIONS):
            assert sandwiched(table, compute_levels(dom, ddir), compute_levels(cod, cdir))


def test_preservation_of_monotone_and_antitone_tables():
    for i, (dom, cod) in enumerate(PAIRS[:30]):
        monotone = random_monotone_table(dom, cod, seed=900 + i)
        antitone = random_antitone_table(dom, cod, seed=950 + i)
        assert monotone.is_monotone()
        assert antitone.is_antitone()
        primal = compute_levels(dom, PRIMAL)
        dual = compute_levels(dom, DUAL)
        for cdir in (PRIMAL, DUAL):
            clin = compute_levels(cod, cdir)
            assert extend(monotone, primal, clin, "over").is_monotone()
            assert extend(antitone, primal, clin, "under").is_antitone()
            assert extend(antitone, dual, clin, "over").is_antitone()
            assert extend(monotone, dual, clin, "under").is_monotone()


# Largest domain per arity that keeps the pairwise reference quick:
# at most 8, 25 and 27 table entries.
MAX_DOMAIN = {1: 8, 2: 5, 3: 3}


def _check_against_brute(table):
    """Both checkers agree with the pairwise scan, for the table and for its
    class mappings under every domain direction, codomain direction and mode."""
    dom, cod = table.domain, table.codomain
    expected = (
        brute_preserves(table.table, dom.leq, cod.leq),
        brute_preserves(table.table, dom.leq, lambda u, v: cod.leq(v, u)),
    )
    assert (table.is_monotone(), table.is_antitone()) == expected
    checked = [expected]
    for ddir, cdir, mode in product(DIRECTIONS, DIRECTIONS, MODES):
        dlin, clin = compute_levels(dom, ddir), compute_levels(cod, cdir)
        cm = extend(table, dlin, clin, mode)
        rd = [dlin.rank(i) for i in range(dlin.num_classes)]
        rc = [clin.rank(i) for i in range(clin.num_classes)]
        expected = tuple(
            brute_preserves(cm.table, lambda i, j: rd[i] <= rd[j], ok)
            for ok in (lambda u, v: rc[u] <= rc[v], lambda u, v: rc[u] >= rc[v])
        )
        assert (cm.is_monotone(), cm.is_antitone()) == expected, (ddir, cdir, mode)
        checked.append(expected)
    return checked


def _perturbed(table, seed):
    """``table`` with one entry reassigned, which usually breaks its order
    character on a few cover steps only."""
    rng = SplitMix64(seed)
    keys = list(table.table)
    entries = dict(table.table)
    entries[keys[rng.below(len(keys))]] = table.codomain.elements[
        rng.below(len(table.codomain))
    ]
    return MappingTable(table.domain, table.arity, table.codomain, entries)


def test_order_checks_match_the_pairwise_reference():
    outcomes = []
    for i in range(150):
        arity = 1 + i % 3
        dom = random_poset(6000 + i, 1 + i % MAX_DOMAIN[arity], EDGE_PROBS[i % 5])
        cod = random_poset(6500 + i, 1 + i % 5, EDGE_PROBS[(i // 5) % 5])
        monotone = random_monotone_table(dom, cod, seed=i, arity=arity)
        antitone = random_antitone_table(dom, cod, seed=i, arity=arity)
        for table in (
            monotone,
            antitone,
            random_table(dom, cod, seed=i, arity=arity),
            _perturbed(monotone, i),
            _perturbed(antitone, i),
        ):
            outcomes.extend(_check_against_brute(table))
    # the sweep reaches every verdict of both checks
    assert {(m, a) for m, a in outcomes} == {
        (True, True), (True, False), (False, True), (False, False)
    }


@settings(max_examples=150)
@given(
    arity=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    probs=st.tuples(st.sampled_from(EDGE_PROBS), st.sampled_from(EDGE_PROBS)),
    base=st.sampled_from([random_monotone_table, random_antitone_table, random_table]),
    data=st.data(),
)
def test_order_checks_match_the_pairwise_reference_on_drawn_tables(
    arity, seed, probs, base, data
):
    dom = random_poset(seed, data.draw(st.integers(1, MAX_DOMAIN[arity])), probs[0])
    cod = random_poset(seed + 1, data.draw(st.integers(1, 5)), probs[1])
    table = base(dom, cod, seed=seed, arity=arity)
    keys = list(table.table)
    overrides = data.draw(
        st.dictionaries(
            st.integers(0, len(keys) - 1), st.sampled_from(cod.elements), max_size=2
        )
    )
    entries = dict(table.table)
    entries.update((keys[k], value) for k, value in overrides.items())
    _check_against_brute(MappingTable(dom, arity, cod, entries))


# (arity, domain size): 64 to 512 entries, within brute_preserves' cap; at
# arity 3 and 4 an inner axis has a stride above 1 and several blocks, and
# at arity 4 one of them takes the one-plain-slice-per-block path
DECK_SHAPES = ((2, 10), (2, 12), (3, 4), (3, 6), (3, 8), (4, 4))


def test_strided_checks_match_the_pairwise_reference_at_deck_sizes():
    outcomes = []
    for i, (arity, size) in enumerate(DECK_SHAPES):
        dom = random_poset(7100 + i, size, EDGE_PROBS[1 + i % 3])
        cod = grid_poset(2, 2 + i % 3)  # a top and a bottom: never a constant fallback
        monotone = random_monotone_table(dom, cod, seed=i, arity=arity)
        antitone = random_antitone_table(dom, cod, seed=i, arity=arity)
        assert 64 <= len(monotone.table) <= 512
        assert len(set(monotone.table.values())) > 1 < len(set(antitone.table.values()))
        for table in (monotone, antitone, _perturbed(monotone, i), _perturbed(antitone, i)):
            outcomes.extend(_check_against_brute(table))
    assert {(m, a) for m, a in outcomes} == {
        (True, True), (True, False), (False, True), (False, False)
    }


def _table_with_gaps(p, arity, seed, gaps):
    """A constant table over ``p`` without ``gaps`` rows, keys in shuffled order."""
    rng = SplitMix64(seed)
    keys = list(product(p.elements, repeat=arity))
    missing = sorted(rng.below(len(keys)) for _ in range(gaps))
    present = [key for k, key in enumerate(keys) if k not in missing]
    for k in range(len(present) - 1, 0, -1):
        j = rng.below(k + 1)
        present[k], present[j] = present[j], present[k]
    return {key: p.elements[0] for key in present}, keys[missing[0]]


@pytest.mark.parametrize("arity", [2, 3])
def test_missing_rows_name_the_first_gap_in_declaration_order(abc_lattice, arity):
    for seed in range(5):
        entries, first = _table_with_gaps(abc_lattice, arity, seed, gaps=4)
        with pytest.raises(MissingTupleError) as caught:
            MappingTable(abc_lattice, arity, abc_lattice, entries)
        assert str(caught.value) == f"mapping undefined for tuple ({', '.join(first)})"


def test_calling_a_table_outside_its_domain_raises_key_error(abc_lattice):
    f = f_table(abc_lattice)
    pairs = MappingTable(
        abc_lattice, 2, abc_lattice, {(x, y): y for x in abc_lattice for y in abc_lattice}
    )
    assert f("a") == "top" and pairs("a", "c") == "c"
    unknown = [(f, ("zz",)), (pairs, ("a", "zz"))]
    wrong_length = [(f, ()), (f, ("a", "b")), (pairs, ("a",)), (pairs, ("a", "b", "c"))]
    for table, xs in unknown + wrong_length:
        with pytest.raises(KeyError):
            table(*xs)


@pytest.mark.parametrize("arity", [1, 2])
def test_calling_a_class_mapping_outside_its_classes_raises_key_error(abc_lattice, arity):
    table = MappingTable(
        abc_lattice, arity, abc_lattice, {xs: xs[-1] for xs in product(abc_lattice, repeat=arity)}
    )
    for direction in DIRECTIONS:
        lin = compute_levels(abc_lattice, direction)
        cm, m, inside = extend(table, lin, lin, "over"), lin.num_classes, (0,) * (arity - 1)
        assert cm(*inside, m - 1) == cm.table[(*inside, m - 1)]
        wrong_arity = [inside, (*inside, 0, 0)]
        for levels in wrong_arity + [(*inside, -1), (*inside, m), (-1,) * arity]:
            with pytest.raises(KeyError):
                cm(*levels)


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("index", [1.0, 1.5, -1, "0"])
def test_a_level_index_that_is_not_an_int_in_range_is_rejected(direction, index):
    p = build_poset(["a", "b"], [("a", "b")])
    lin = compute_levels(p, direction)
    cm = extend(MappingTable(p, 1, p, {("a",): "a", ("b",): "b"}), lin, lin, "over")
    with pytest.raises(ValueError, match=re.escape(f"range(2), got {index!r}")):
        lin.rank(index)
    with pytest.raises(KeyError):
        cm(index)


def test_table_view_is_read_only_and_in_declaration_order(abc_lattice):
    entries = {(x, y): y for x in reversed(abc_lattice.elements) for y in abc_lattice}
    table = MappingTable(abc_lattice, 2, abc_lattice, entries)
    assert list(table.table) == list(product(abc_lattice.elements, repeat=2))
    assert table.table == entries
    with pytest.raises(TypeError):
        table.table[("a", "a")] = "bot"
    assert table("a", "a") == "a"
    assert MappingTable(abc_lattice, 2, abc_lattice, dict(table.table)) == table
    assert MappingTable(abc_lattice, 2, abc_lattice, table.table) == table
    assert repr(table) == "MappingTable(arity=2, 25 entries)"


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_checks_reach_every_block_and_offset_of_every_axis(arity):
    # one cover step lo < hi among isolated elements: a single raised slot
    # with lo on one axis and isolated elements elsewhere breaks monotonicity
    # on that one step only, in the block and offset its other digits give
    dom = build_poset(["i0", "lo", "i1", "hi", "i2"], [("lo", "hi")])
    cod = chain(2)
    isolated = ["i0", "i1", "i2"]
    for axis in range(arity):
        for others in product(isolated, repeat=arity - 1):
            raised = others[:axis] + ("lo",) + others[axis:]
            entries = {xs: "x0" for xs in product(dom.elements, repeat=arity)}
            entries[raised] = "x1"
            table = MappingTable(dom, arity, cod, entries)
            assert (table.is_monotone(), table.is_antitone()) == (False, True), raised


# Largest domain per arity for the class-product reference: at most 12, 64
# and 125 table entries.
EXTEND_DOMAIN = {1: 12, 2: 8, 3: 5}


def _first_difference(got, want):
    """Where ``extend``'s class mapping ``got`` leaves ``want``'s."""
    for key, value in want.table.items():
        if got.table.get(key) != value:
            return f"class tuple {key}: extend gives {got.table.get(key)}, brute force {value}"
    return f"same tables, other fields differ: {got[:4]} != {want[:4]}"


def _extensions_match_brute(table):
    """``extend`` equals ``brute_extend`` under every domain direction,
    codomain direction and mode; returns the class mappings."""
    extended = []
    for ddir, cdir, mode in product(DIRECTIONS, DIRECTIONS, MODES):
        dlin, clin = compute_levels(table.domain, ddir), compute_levels(table.codomain, cdir)
        got, want = extend(table, dlin, clin, mode), brute_extend(table, dlin, clin, mode)
        assert got == want, (ddir, cdir, mode, _first_difference(got, want))
        extended.append(got)
    return extended


def _swapped(cm, i, j):
    """``cm``'s table with arguments ``i`` and ``j`` exchanged."""
    def swap(key):
        key = list(key)
        key[i], key[j] = key[j], key[i]
        return tuple(key)

    return {swap(key): value for key, value in cm.table.items()}


def _sweep_tables():
    """120 seeded domain/codomain pairs at arity 1-3, with one unconstrained
    and one monotone table each."""
    for i in range(120):
        arity = 1 + i % 3
        dom = random_poset(8000 + i, 2 + i % (EXTEND_DOMAIN[arity] - 1), EDGE_PROBS[i % 5])
        cod = random_poset(8500 + i, 1 + i % 6, EDGE_PROBS[(i // 5) % 5])
        yield random_table(dom, cod, seed=i, arity=arity)
        yield random_monotone_table(dom, cod, seed=i, arity=arity)


def test_extend_matches_the_class_product_reference():
    asymmetric = set()
    for table in _sweep_tables():
        arity = table.arity
        for cm in _extensions_match_brute(table):
            for axes in ((0, 1), (arity - 2, arity - 1)):
                if arity > 1 and _swapped(cm, *axes) != cm.table:
                    asymmetric.add((arity, axes))
    # the sweep can see the order of the arguments on every axis pair checked
    assert asymmetric == {(2, (0, 1)), (3, (0, 1)), (3, (1, 2))}


@settings(max_examples=150)
@given(
    arity=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    probs=st.tuples(st.sampled_from(EDGE_PROBS), st.sampled_from(EDGE_PROBS)),
    data=st.data(),
)
def test_extend_matches_the_class_product_reference_on_drawn_tables(arity, seed, probs, data):
    dom = random_poset(seed, data.draw(st.integers(1, EXTEND_DOMAIN[arity])), probs[0])
    cod = random_poset(seed + 1, data.draw(st.integers(1, 6)), probs[1])
    keys = list(product(dom.elements, repeat=arity))
    images = st.sampled_from(cod.elements)
    images = data.draw(st.lists(images, min_size=len(keys), max_size=len(keys)))
    for cm in _extensions_match_brute(MappingTable(dom, arity, cod, dict(zip(keys, images)))):
        # the level-index view and calls read the rank tuple, reversed on a primal domain
        dom_lin, cod_lin, view = cm.domain_lin, cm.codomain_lin, cm.table
        m = dom_lin.num_classes
        assert list(view) == list(product(range(m), repeat=arity))
        for k, value in view.items():
            assert cm(*k) == value
            slot = sum(dom_lin.rank(i) * m ** (arity - 1 - a) for a, i in enumerate(k))
            assert cm.ranks[slot] == cod_lin.rank(value)


def test_emit_json_equals_its_composition_from_public_calls():
    # emit_json reads the entries and both flags off one rank list and one
    # pair set; the public calls compute each alone
    for table in _sweep_tables():
        for ddir, cdir, mode in product(DIRECTIONS, DIRECTIONS, MODES):
            dlin, clin = compute_levels(table.domain, ddir), compute_levels(table.codomain, cdir)
            cm = extend(table, dlin, clin, mode)
            assert emit_json(cm) == emit_class_mapping_composed(cm), (ddir, cdir, mode)


@settings(max_examples=150)
@given(
    arity=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    probs=st.tuples(st.sampled_from(EDGE_PROBS), st.sampled_from(EDGE_PROBS)),
    data=st.data(),
)
def test_table_checks_agree_with_the_pairwise_scan_in_either_order(arity, seed, probs, data):
    # the first check on a table fills the pair set that the second reads
    dom = random_poset(seed, data.draw(st.integers(1, MAX_DOMAIN[arity])), probs[0])
    cod = random_poset(seed + 1, data.draw(st.integers(1, 6)), probs[1])
    keys = list(product(dom.elements, repeat=arity))
    images = st.sampled_from(cod.elements)
    entries = dict(zip(keys, data.draw(st.lists(images, min_size=len(keys), max_size=len(keys)))))
    expected = (
        brute_preserves(entries, dom.leq, cod.leq),
        brute_preserves(entries, dom.leq, lambda u, v: cod.leq(v, u)),
    )
    first = MappingTable(dom, arity, cod, entries)
    forward = first.is_monotone(), first.is_antitone()
    second = MappingTable(dom, arity, cod, entries)
    backward = second.is_antitone(), second.is_monotone()
    assert forward == backward[::-1] == expected


def test_class_mapping_views_read_ranks_with_no_round_trip(monkeypatch):
    """``cm.table`` and ``cm(*levels)`` read ``ranks`` by one slot each: no
    ``ClassMapping.__call__`` per entry and no domain ``Linearisation.rank``,
    and both equal the per-digit definition, under all four direction pairs."""
    dom, cod = grid_poset(2, 3), grid_poset(2, 2)
    cases = []
    for i, (ddir, cdir) in enumerate(product(DIRECTIONS, DIRECTIONS)):
        dlin, clin = compute_levels(dom, ddir), compute_levels(cod, cdir)
        cm = extend(random_table(dom, cod, seed=700 + i, arity=2), dlin, clin, "over")
        m = dlin.num_classes
        definition = {  # each level index through the domain's rank, digit by digit
            key: clin.rank(cm.ranks[dlin.rank(key[0]) * m + dlin.rank(key[1])])
            for key in product(range(m), repeat=2)
        }
        assert len(set(definition.values())) > 1, (ddir, cdir)  # an order to get wrong
        cases.append((cm, definition))
    calls = []
    call, rank = ClassMapping.__call__, Linearisation.rank
    monkeypatch.setattr(ClassMapping, "__call__", lambda cm, *key: calls.append("call") or call(cm, *key))
    monkeypatch.setattr(Linearisation, "rank", lambda lin, i: calls.append(lin.source) or rank(lin, i))
    for cm, definition in cases:
        assert dict(cm.table) == definition
        assert calls == [cod] * len(definition)  # one codomain rank per entry, nothing else
        for key, value in definition.items():
            calls.clear()
            assert cm(*key) == value
            assert calls == ["call", cod]
        calls.clear()


def _sup_chain_map(lattice, a, b):
    """The ordered witness map as first written: ``sup`` chained from the bottom."""
    image = {}
    for x in lattice.elements:
        value = lattice.minimal_elements()[0]
        if lattice.leq(a, x):
            value = lattice.sup(value, b)
        if lattice.leq(b, x):
            value = lattice.sup(value, a)
        image[x] = value
    return image


def test_the_ordered_witness_map_is_the_sup_chain_map():
    pairs = set()
    for lattice in (boolean_lattice_3(), grid_poset(3, 3), grid_poset(2, 4), grid_poset(2, 2)):
        for sign in (1, -1):  # two linear extensions; distinct ranks give the ordered case
            order = sorted(lattice, key=lambda x: (len(lattice.below(x)), sign * lattice.position(x)))
            witness = impossibility_witness(lattice, {x: i for i, x in enumerate(order)})
            assert witness.case == "ordered"
            image = {x: witness.witness_map(x) for x in lattice.elements}
            assert image == _sup_chain_map(lattice, *witness.pair), (lattice, sign)
            pairs.add((len(lattice), witness.pair))
    assert len(pairs) == 8  # each lattice's pair, in both orientations


TWO = build_poset(["0", "1"], [("0", "1")])


def _extension_ranks(p, up_set, direction, mode):
    """Class ranks of the brute-force extension of ``up_set``'s indicator P -> 2."""
    indicator = MappingTable(p, 1, TWO, {(x,): "1" if x in up_set else "0" for x in p.elements})
    return brute_extend(indicator, brute_levels(p, direction), brute_levels(TWO), mode).ranks


def test_claim_ii_holds_in_all_four_pairs_iff_the_decompositions_coincide():
    """Claim (ii) stated exactly (the proof is in ``linearisations_equivalent``),
    on every naturally labelled poset up to six elements: a witness exists iff
    the decompositions differ, and both witnesses are up-sets whose indicator
    extends to falling ranks.  On the coinciding posets up to five elements,
    every up-set indicator extends to rising ranks in all four pairs."""
    refuted = coinciding = extensions = 0
    for elements, pairs in naturally_labelled_posets(6):
        p = build_poset(elements, pairs)
        strict = brute_order(elements, pairs)[0]
        witnesses = [coincidence_witness(p, direction) for direction in (PRIMAL, DUAL)]
        assert (witnesses == [None, None]) == linearisations_equivalent(p), (elements, pairs)
        if witnesses[0] is not None:
            refuted += 1
            for (up_set, direction, mode), expected in zip(witnesses, ((PRIMAL, "under"), (DUAL, "over"))):
                assert (direction, mode) == expected
                assert all(y in up_set for x, y in strict if x in up_set), (elements, pairs)
                ranks = _extension_ranks(p, up_set, direction, mode)
                assert list(ranks) != sorted(ranks), (elements, pairs, direction)
        elif len(elements) <= 5:
            coinciding += 1
            for bits in range(1 << len(elements)):
                up_set = {x for i, x in enumerate(elements) if bits >> i & 1}
                if any(y not in up_set for x, y in strict if x in up_set):
                    continue
                for direction, mode in product(DIRECTIONS, MODES):
                    ranks = _extension_ranks(p, up_set, direction, mode)
                    assert list(ranks) == sorted(ranks), (elements, pairs, up_set, direction, mode)
                    extensions += 1
    assert (refuted, coinciding, extensions) == (4089, 123, 5664)
