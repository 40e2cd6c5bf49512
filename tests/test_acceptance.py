"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
Every criterion is exact; the property criteria run over fixed seeded
corpora, so a failure is always reproducible.
"""

import time
from itertools import product

from posetlin import (
    DUAL,
    PRIMAL,
    MappingTable,
    brute_levels,
    compute_levels,
    count_linear_extensions,
    emit_json,
    enumerate_maximal_chains,
    extend,
    impossibility_witness,
    linearisations_equivalent,
    parse_scores,
    random_poset,
    rank_items,
    satisfies_elcc,
)
from helpers import (
    abc_poset,
    antichain,
    boolean_lattice_3,
    chain,
    corpus,
    corpus_params,
    diamond_poset,
    grid_poset,
    random_antitone_table,
    random_monotone_table,
    sandwiched,
)


def _criterion(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} [{status}]: {description}")
    assert not failures, (
        f"criterion {number} failed with {len(failures)} issue(s); first few: "
        + " | ".join(str(f) for f in failures[:5])
    )


def test_criterion_01_worked_example_levels():
    failures = []
    abc = abc_poset()
    primal = emit_json(compute_levels(abc, PRIMAL))
    if primal != '{"direction":"primal","classes":[["bot"],["a"],["b","c"],["top"]]}':
        failures.append(f"primal classes were {primal}")
    dual = emit_json(compute_levels(abc, DUAL))
    if dual != '{"direction":"dual","classes":[["bot"],["a","c"],["b"],["top"]]}':
        failures.append(f"dual classes were {dual}")
    _criterion(1, "worked example emits the exact primal and dual classes", failures)


def test_criterion_02_elcc_decisions():
    failures = []
    abc = abc_poset()
    diamond = diamond_poset()
    lengths = sorted({len(c) for c in enumerate_maximal_chains(abc)})
    if lengths != [3, 4]:
        failures.append(f"abc chain lengths were {lengths}")
    if satisfies_elcc(abc):
        failures.append("abc should fail the equal length chain condition")
    if not satisfies_elcc(diamond):
        failures.append("diamond should satisfy the equal length chain condition")
    for p, name in ((abc, "abc"), (diamond, "diamond")):
        if linearisations_equivalent(p) != satisfies_elcc(p):
            failures.append(f"equivalence and ELCC disagree on {name}")
    _criterion(2, "ELCC false on abc (chains 4 and 3), true on diamond, equiv agrees", failures)


def test_criterion_03_counterexample_reproduction():
    failures = []
    abc = abc_poset()
    lin = compute_levels(abc, PRIMAL)
    f = MappingTable(
        abc, 1, abc,
        {("bot",): "bot", ("c",): "c", ("top",): "top", ("a",): "top", ("b",): "top"},
    )
    g = MappingTable(
        abc, 1, abc,
        {("bot",): "top", ("c",): "c", ("top",): "bot", ("a",): "bot", ("b",): "bot"},
    )
    if not f.is_monotone():
        failures.append("f should be monotone")
    if not g.is_antitone():
        failures.append("g should be antitone")
    # level indices: 0 = {top}, 1 = {b, c}, 2 = {a}, 3 = {bot}
    f_under = extend(f, lin, lin, "under")
    if f_under.table != {(0,): 0, (1,): 1, (2,): 0, (3,): 3}:
        failures.append(f"under-extension of f was {f_under.table}")
    if f_under.is_monotone():
        failures.append("under-extension of f must not be monotone")
    g_over = extend(g, lin, lin, "over")
    if g_over.table != {(0,): 3, (1,): 1, (2,): 3, (3,): 0}:
        failures.append(f"over-extension of g was {g_over.table}")
    if g_over.is_antitone():
        failures.append("over-extension of g must not be antitone")
    _criterion(3, "worked counterexample tables reproduce exactly", failures)


def test_criterion_04_level_property_suite():
    """Level laws over 1000 seeded posets.

    Besides the per-direction laws (partition, antichain levels, strict
    order preserved, ``longest_chain_length`` classes, brute-force agreement)
    and the Hoare/Smyth orderings, two clauses tie the ELCC to coincidence
    of the primal and dual decompositions:

    (a) the ELCC implies that the two decompositions coincide;
    (b) the decompositions coincide exactly when every element lies on an
        enumerated maximal chain of ``longest_chain_length`` elements.

    The converse of (a) is false (see
    test_levels.py::test_equivalent_linearisations_do_not_imply_elcc for a
    seven element counterexample); the corpus posets at seeds 1166, 1330,
    1931 and 1944 coincide with maximal chains of unequal length, and the
    criterion requires at least one such witness to stay in the corpus.
    """
    failures = []
    converse_witnesses = 0
    for seed, size, prob in corpus_params(1000):
        p = random_poset(seed, size, prob)
        tag = f"seed={seed} size={size} prob={prob}"
        primal = compute_levels(p, PRIMAL)
        dual = compute_levels(p, DUAL)
        k = p.longest_chain_length()
        chains = enumerate_maximal_chains(p)
        for lin, direction in ((primal, PRIMAL), (dual, DUAL)):
            flat = [x for level in lin.levels for x in level]
            if len(flat) != len(p) or set(flat) != set(p.elements):
                failures.append(f"{tag}: {direction} levels do not partition")
            for level in lin.levels:
                members = list(level)
                for i, x in enumerate(members):
                    for y in members[i + 1 :]:
                        if not p.incomparable(x, y):
                            failures.append(f"{tag}: {direction} level not an antichain")
            for x, y in p.strict_pairs:
                if lin.compare(x, y) != "less":
                    failures.append(f"{tag}: {direction} order not preserved on ({x},{y})")
            if lin.num_classes != k:
                failures.append(f"{tag}: {direction} has {lin.num_classes} classes, chain length {k}")
            if brute_levels(p, direction) != lin:
                failures.append(f"{tag}: {direction} disagrees with brute force")
        if max(len(c) for c in chains) != k:
            failures.append(f"{tag}: longest chain disagrees with enumeration")
        for i, lower in enumerate(primal.levels):
            for j in range(i):
                for z in lower:
                    if not any(p.lt(z, w) for w in primal.levels[j]):
                        failures.append(f"{tag}: primal levels not Hoare ordered")
        for j, upper in enumerate(dual.levels):
            for i in range(j):
                for z in upper:
                    if not any(p.lt(w, z) for w in dual.levels[i]):
                        failures.append(f"{tag}: dual levels not Smyth ordered")
        elcc = satisfies_elcc(p)
        coincide = linearisations_equivalent(p)
        if elcc and not coincide:
            failures.append(f"{tag}: clause (a): ELCC holds but the decompositions differ")
        on_longest = {x for c in chains if len(c) == k for x in c}
        if coincide != (on_longest == set(p.elements)):
            failures.append(
                f"{tag}: clause (b): decompositions coincide={coincide}, yet "
                f"{len(p) - len(on_longest)} element(s) lie on no chain of {k} elements"
            )
        if coincide and not elcc:
            converse_witnesses += 1
        if elcc != (len({len(c) for c in chains}) == 1):
            failures.append(f"{tag}: ELCC disagrees with enumerated chain lengths")
    if converse_witnesses == 0:
        failures.append("no corpus poset witnesses that the converse of clause (a) is false")
    _criterion(4, "level laws hold on 1000 seeded posets, zero failures", failures)


def test_criterion_05_mapping_preservation_suite():
    failures = []
    domains = corpus(50, max_size=5, seed_base=5000)
    codomains = corpus(50, max_size=5, seed_base=6000)
    table_count = 0
    nonconstant = 0
    for i, (dom, cod) in enumerate(zip(domains, codomains)):
        lins = {
            (PRIMAL, "dom"): compute_levels(dom, PRIMAL),
            (DUAL, "dom"): compute_levels(dom, DUAL),
            (PRIMAL, "cod"): compute_levels(cod, PRIMAL),
            (DUAL, "cod"): compute_levels(cod, DUAL),
        }
        for t in range(20):
            monotone = random_monotone_table(dom, cod, seed=10_000 + 37 * i + t)
            antitone = random_antitone_table(dom, cod, seed=20_000 + 37 * i + t)
            if not monotone.is_monotone():
                failures.append(f"pair {i} table {t}: generated table not monotone")
                continue
            if not antitone.is_antitone():
                failures.append(f"pair {i} table {t}: generated table not antitone")
                continue
            table_count += 2
            nonconstant += sum(
                len(set(t.table.values())) > 1 for t in (monotone, antitone)
            )
            for cdir in (PRIMAL, DUAL):
                clin = lins[(cdir, "cod")]
                checks = [
                    ("primal over monotone", extend(monotone, lins[(PRIMAL, "dom")], clin, "over").is_monotone()),
                    ("primal under antitone", extend(antitone, lins[(PRIMAL, "dom")], clin, "under").is_antitone()),
                    ("dual over antitone", extend(antitone, lins[(DUAL, "dom")], clin, "over").is_antitone()),
                    ("dual under monotone", extend(monotone, lins[(DUAL, "dom")], clin, "under").is_monotone()),
                ]
                for label, ok in checks:
                    if not ok:
                        failures.append(f"pair {i} table {t} codomain {cdir}: {label} broken")
                for table in (monotone, antitone):
                    for ddir in (PRIMAL, DUAL):
                        if not sandwiched(table, lins[(ddir, "dom")], clin):
                            failures.append(f"pair {i} table {t}: sandwich broken ({ddir},{cdir})")
    if table_count < 2000:
        failures.append(f"only {table_count} unary tables were generated")
    if nonconstant < 800:
        failures.append(
            f"only {nonconstant} non-constant unary tables; the suite degenerated"
        )
    small_domains = [p for p in corpus(24, max_size=4, seed_base=7500)]
    small_codomains = [p for p in corpus(24, max_size=4, seed_base=8500)]
    for i, (dom, cod) in enumerate(zip(small_domains, small_codomains)):
        dlin = compute_levels(dom, PRIMAL)
        clin = compute_levels(cod, PRIMAL)
        for t in range(3):
            monotone = random_monotone_table(dom, cod, seed=30_000 + 13 * i + t, arity=2)
            antitone = random_antitone_table(dom, cod, seed=40_000 + 13 * i + t, arity=2)
            if not monotone.is_monotone() or not antitone.is_antitone():
                failures.append(f"arity-2 pair {i} table {t}: generation failed validation")
                continue
            if not extend(monotone, dlin, clin, "over").is_monotone():
                failures.append(f"arity-2 pair {i} table {t}: over extension lost monotonicity")
            if not extend(antitone, dlin, clin, "under").is_antitone():
                failures.append(f"arity-2 pair {i} table {t}: under extension lost antitonicity")
            for table in (monotone, antitone):
                if not sandwiched(table, dlin, clin):
                    failures.append(f"arity-2 pair {i} table {t}: sandwich broken")
    _criterion(5, "sandwich and all four preservation laws, zero failures", failures)


def test_criterion_06_elcc_corollary_on_graded_lattices():
    failures = []
    abc = abc_poset()
    for name, domain in (("B3", boolean_lattice_3()), ("3x3", grid_poset(3, 3))):
        if not satisfies_elcc(domain):
            failures.append(f"{name} should satisfy the ELCC")
        nonconstant = 0
        for t in range(20):
            codomain = abc if t % 2 else domain
            monotone = random_monotone_table(domain, codomain, seed=50_000 + t)
            antitone = random_antitone_table(domain, codomain, seed=60_000 + t)
            if not monotone.is_monotone() or not antitone.is_antitone():
                failures.append(f"{name} table {t}: generation failed validation")
                continue
            nonconstant += sum(
                len(set(t.table.values())) > 1 for t in (monotone, antitone)
            )
            for ddir in (PRIMAL, DUAL):
                dlin = compute_levels(domain, ddir)
                for cdir in (PRIMAL, DUAL):
                    clin = compute_levels(codomain, cdir)
                    for mode in ("over", "under"):
                        if not extend(monotone, dlin, clin, mode).is_monotone():
                            failures.append(
                                f"{name} table {t}: monotone {mode} extension broken ({ddir},{cdir})"
                            )
                        if not extend(antitone, dlin, clin, mode).is_antitone():
                            failures.append(
                                f"{name} table {t}: antitone {mode} extension broken ({ddir},{cdir})"
                            )
        if nonconstant < 20:
            failures.append(f"{name}: only {nonconstant} non-constant tables")
    _criterion(6, "under ELCC both extensions preserve monotone and antitone tables", failures)


def test_criterion_07_impossibility_exhaustion():
    failures = []
    started = time.perf_counter()
    diamond = diamond_poset()
    admissible = []
    for values in product(range(4), repeat=4):
        ranks = dict(zip(diamond.elements, values))
        if all(ranks[x] < ranks[y] for x, y in diamond.strict_pairs):
            admissible.append(ranks)
    if len(admissible) != 6:
        failures.append(f"expected 6 admissible rank functions, found {len(admissible)}")
    cases = {"collapsed": 0, "ordered": 0}
    for ranks in admissible:
        witness = impossibility_witness(diamond, ranks)
        cases[witness.case] += 1
        if not witness.recheck():
            failures.append(f"witness for {ranks} failed re-verification")
        expected_case = "collapsed" if ranks["a"] == ranks["b"] else "ordered"
        if witness.case != expected_case:
            failures.append(f"witness for {ranks} took the wrong case")
        if not witness.witness_map.is_monotone():
            failures.append(f"witness map for {ranks} is not monotone")
    if cases != {"collapsed": 4, "ordered": 2}:
        failures.append(f"case split was {cases}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10:
        failures.append(f"exhaustion took {elapsed:.1f}s, budget is 10s")
    _criterion(7, "every admissible rank function on the diamond is refuted", failures)


def test_criterion_08_linear_fixpoint():
    failures = []
    for n in range(1, 11):
        p = chain(n)
        expected = [[x] for x in p.elements]
        for direction in (PRIMAL, DUAL):
            classes = compute_levels(p, direction).classes_ascending()
            if classes != expected:
                failures.append(f"chain of {n}: {direction} classes were {classes}")
    _criterion(8, "chains linearise to themselves in both directions", failures)


def test_criterion_09_oracle_sanity():
    failures = []
    factorial = 1
    for n in range(1, 6):
        factorial *= n
        count = count_linear_extensions(antichain(n))
        if count != factorial:
            failures.append(f"antichain of {n}: counted {count}, expected {factorial}")
    for n in (1, 4, 8):
        if count_linear_extensions(chain(n)) != 1:
            failures.append(f"chain of {n}: count should be 1")
    # confirmed independently by filtering all 120 permutations of the carrier
    if count_linear_extensions(abc_poset()) != 3:
        failures.append("abc should admit exactly 3 linear extensions")
    _criterion(9, "linear extension counts match factorials, chains, and abc", failures)


def test_criterion_10_top_k_ranking():
    failures = []
    items = parse_scores("p 0.9 1.0\nq 0.2 0.4\nr 0.1 0.8\n")
    ranking = rank_items(items, 1)
    groups = [group.items for group in ranking.groups]
    if groups != [("p",)]:
        failures.append(f"top-1 groups were {groups}")
    undominated = {
        u.item
        for u in items
        if not any(
            (v.lo, v.hi) != (u.lo, u.hi) and v.lo >= u.lo and v.hi >= u.hi
            for v in items
        )
    }
    if undominated != {"p"}:
        failures.append(f"dominance oracle found {undominated}")
    if set(ranking.groups[0].items) != undominated:
        failures.append("ranking head disagrees with the dominance oracle")
    _criterion(10, "three-interval ranking returns {p} and matches brute force", failures)
