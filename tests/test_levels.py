"""Level decomposition, the induced linear order, and the ELCC decision."""

import pytest

from posetlin import (
    DUAL,
    PRIMAL,
    EmptyPosetError,
    SplitMix64,
    UnknownElementError,
    build_poset,
    compute_levels,
    enumerate_maximal_chains,
    linearisations_equivalent,
    parse_poset,
    satisfies_elcc,
)
from helpers import (
    antichain,
    chain,
    coinciding_levels_unequal_chains,
    corpus,
    elcc_over_cover_bits,
    pulled_layers,
    shuffled,
)


def test_abc_primal_levels(abc_lattice):
    lin = compute_levels(abc_lattice, PRIMAL)
    assert [set(level) for level in lin.levels] == [
        {"top"}, {"b", "c"}, {"a"}, {"bot"},
    ]
    assert lin.classes_ascending() == [["bot"], ["a"], ["b", "c"], ["top"]]


def test_abc_dual_levels(abc_lattice):
    lin = compute_levels(abc_lattice, DUAL)
    assert [set(level) for level in lin.levels] == [
        {"bot"}, {"a", "c"}, {"b"}, {"top"},
    ]
    assert lin.classes_ascending() == [["bot"], ["a", "c"], ["b"], ["top"]]


@pytest.mark.parametrize("direction", [PRIMAL, DUAL])
def test_chain_levels_are_singletons_in_order(direction):
    p = chain(6)
    lin = compute_levels(p, direction)
    assert lin.classes_ascending() == [[x] for x in p.elements]


def test_empty_poset_is_rejected():
    with pytest.raises(EmptyPosetError):
        compute_levels(build_poset([], []), PRIMAL)


def test_unknown_direction_is_rejected(abc_lattice):
    with pytest.raises(ValueError):
        compute_levels(abc_lattice, "sideways")


def test_project(abc_lattice):
    primal = compute_levels(abc_lattice, PRIMAL)
    assert primal.project("b") == 1
    assert primal.project("c") == 1
    assert primal.project("top") == 0
    dual = compute_levels(abc_lattice, DUAL)
    assert dual.project("a") == dual.project("c") == 1
    with pytest.raises(UnknownElementError):
        primal.project("zz")


@pytest.mark.parametrize("direction", [PRIMAL, DUAL])
def test_rank_is_its_own_inverse_and_rejects_an_index_outside_the_levels(direction):
    lin = compute_levels(chain(3), direction)
    assert [lin.rank(lin.rank(i)) for i in range(3)] == [0, 1, 2]
    for index in (-1, 3, 7):
        with pytest.raises(ValueError, match=rf"range\(3\), got {index}"):
            lin.rank(index)


def test_compare(abc_lattice):
    primal = compute_levels(abc_lattice, PRIMAL)
    assert primal.compare("a", "c") == "less"
    assert primal.compare("c", "a") == "greater"
    assert primal.compare("b", "c") == "equal"
    for x in abc_lattice.elements:
        assert primal.compare(x, x) == "equal"


def test_dual_compare_diverges_from_primal(abc_lattice):
    dual = compute_levels(abc_lattice, DUAL)
    assert dual.compare("a", "c") == "equal"
    assert dual.compare("a", "b") == "less"


def test_satisfies_elcc(abc_lattice, diamond):
    assert not satisfies_elcc(abc_lattice)
    assert satisfies_elcc(diamond)
    assert satisfies_elcc(chain(5))
    assert satisfies_elcc(antichain(4))
    assert satisfies_elcc(build_poset(["x"], []))


def test_linearisations_equivalent(abc_lattice, diamond):
    assert not linearisations_equivalent(abc_lattice)
    assert linearisations_equivalent(diamond)
    assert linearisations_equivalent(build_poset(["x"], []))


def test_elcc_decisions_reject_empty_posets():
    empty = build_poset([], [])
    with pytest.raises(EmptyPosetError):
        satisfies_elcc(empty)
    with pytest.raises(EmptyPosetError):
        linearisations_equivalent(empty)


LEVEL_CORPUS = corpus(250)


def _lins(p):
    return compute_levels(p, PRIMAL), compute_levels(p, DUAL)


def test_levels_partition_the_carrier():
    for p in LEVEL_CORPUS:
        for lin in _lins(p):
            seen = [x for level in lin.levels for x in level]
            assert len(seen) == len(p)
            assert set(seen) == set(p.elements)
            assert all(level for level in lin.levels)


def test_levels_are_antichains():
    for p in LEVEL_CORPUS:
        for lin in _lins(p):
            for level in lin.levels:
                members = sorted(level, key=p.position)
                for i, x in enumerate(members):
                    for y in members[i + 1 :]:
                        assert p.incomparable(x, y)


def test_strictly_smaller_elements_land_in_strictly_smaller_classes():
    for p in LEVEL_CORPUS:
        for lin in _lins(p):
            for x, y in p.strict_pairs:
                assert lin.compare(x, y) == "less"


def test_class_counts_equal_the_longest_chain_length():
    for p in LEVEL_CORPUS:
        primal, dual = _lins(p)
        k = p.longest_chain_length()
        assert primal.num_classes == k
        assert dual.num_classes == k
        chains = enumerate_maximal_chains(p)
        assert max(len(c) for c in chains) == k


def test_primal_levels_are_hoare_ordered():
    # above any member of a lower class sits some member of each higher class
    for p in LEVEL_CORPUS:
        primal = compute_levels(p, PRIMAL)
        for i, lower in enumerate(primal.levels):
            for j in range(i):
                higher = primal.levels[j]
                for z in lower:
                    assert any(p.lt(z, w) for w in higher)


def test_dual_levels_are_smyth_ordered():
    # below any member of a higher dual class sits some member of each lower one
    for p in LEVEL_CORPUS:
        dual = compute_levels(p, DUAL)
        for j, upper in enumerate(dual.levels):
            for i in range(j):
                lower = dual.levels[i]
                for z in upper:
                    assert any(p.lt(w, z) for w in lower)


def test_elcc_matches_enumerated_chain_lengths():
    for p in LEVEL_CORPUS:
        lengths = {len(c) for c in enumerate_maximal_chains(p)}
        assert satisfies_elcc(p) == (len(lengths) == 1)


def test_elcc_implies_equivalent_linearisations():
    for p in LEVEL_CORPUS:
        if satisfies_elcc(p):
            assert linearisations_equivalent(p)


def test_equivalent_linearisations_do_not_imply_elcc():
    # both decompositions coincide, yet one maximal chain is short
    p = coinciding_levels_unequal_chains()
    assert linearisations_equivalent(p)
    assert not satisfies_elcc(p)
    lengths = sorted({len(c) for c in enumerate_maximal_chains(p)})
    assert lengths == [3, 4]


def test_graded_identity_under_elcc():
    for p in LEVEL_CORPUS:
        if satisfies_elcc(p):
            primal, dual = _lins(p)
            k = primal.num_classes
            for x in p.elements:
                assert primal.project(x) == (k - 1) - dual.project(x)


def test_linear_posets_reproduce_their_own_order():
    for n in range(1, 11):
        p = chain(n)
        for lin in _lins(p):
            assert lin.classes_ascending() == [[x] for x in p.elements]


# -- the push loops against the earlier pull loops, past the oracle caps ------

CUT = 1000  # the cut chain lacks the cover x1000 < x1001


def _long_chain(cut=False):
    """A 3,000-chain read from a file that declares its elements in shuffled
    order and lists its pairs shuffled: the covers, 750 redundant pairs and
    100 repeated edge lines.  No redundant pair touches x1000 or x1001, so with
    ``cut`` x1000 is maximal on dual level 1,000, far below the top, and the
    ELCC fails."""
    rng = SplitMix64(36)
    n = 3000
    names = [f"x{i}" for i in range(n)]
    pairs = list(zip(names, names[1:]))
    for _ in range(750):
        i = rng.below(n - 2)
        j = i + 2 + rng.below(n - i - 2)
        if not {i, j} & {CUT, CUT + 1}:
            pairs.append((names[i], names[j]))
    pairs += [pairs[rng.below(len(pairs))] for _ in range(100)]
    if cut:
        pairs = [pair for pair in pairs if pair != (names[CUT], names[CUT + 1])]
    text = "".join(f"elem {x}\n" for x in shuffled(rng, names))
    text += "".join(f"{x} < {y}\n" for x, y in shuffled(rng, pairs))
    return parse_poset(text)


def _grid(rows, cols):
    """The componentwise product of two chains, declared and generated shuffled."""
    rng = SplitMix64(rows * cols)
    names = [f"g{i}_{j}" for i in range(rows) for j in range(cols)]
    pairs = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(rows - 1) for j in range(cols)]
    pairs += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(rows) for j in range(cols - 1)]
    return build_poset(shuffled(rng, names), shuffled(rng, pairs))


def _random_dag(n, seed):
    """Each of ``n`` elements generates three pairs up to later ones, drawn with
    repeats; the elements are declared shuffled."""
    rng = SplitMix64(seed)
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[i], names[i + 1 + rng.below(n - i - 1)]) for i in range(n - 1) for _ in range(3)]
    return build_poset(shuffled(rng, names), pairs)


CHART_SIZED = {
    "3000-chain": (_long_chain, True),
    "30x30 grid": (lambda: _grid(30, 30), True),
    "400-dag": (lambda: _random_dag(400, 400), False),
    "2000-dag": (lambda: _random_dag(2000, 2000), False),
    "3000-chain without one cover": (lambda: _long_chain(cut=True), False),
}


@pytest.mark.parametrize("name", CHART_SIZED)
def test_push_loops_equal_the_pull_loops_at_chart_sizes(name):
    make, elcc = CHART_SIZED[name]
    p = make()
    for q in (p, p._dual()):
        assert q._layers() == pulled_layers(q)
    assert satisfies_elcc(p) is elcc_over_cover_bits(p) is elcc
