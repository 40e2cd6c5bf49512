"""The CLI against the benchmark's reference, at sizes beyond the oracle caps.

``perfbench/reference.py`` computes closure, levels, the ELCC, equivalence,
the lattice test, ranking and extension without importing posetlin.  The
brute-force oracles stop at 64 elements, 4096 table entries and 64 distinct
intervals; the seeded cases here run ``--json`` requests at 100-400
elements, about 10**4 table entries and 1,000 intervals, and compare stdout
byte for byte with the reference's rendering.
"""

import importlib.util
from itertools import product
from pathlib import Path

from posetlin import SplitMix64
from posetlin.cli import main
from helpers import shuffled

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_reference():
    # loaded by path under its own name, so no module search path changes
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", PERFBENCH / "reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()


def random_dag(seed, n, shape, bounded):
    """Declared names and generating pairs of a DAG on ``v0 .. v{n-1}``.

    Pairs always go from a lower to a higher index, and names are declared
    in a shuffled order.  ``sparse``: each element gets up to three random
    lower neighbours.  ``tree``: each element but the last gets one random
    upper neighbour, so every up-set is a chain and an added bottom makes a
    lattice.  ``graded``: eight layers, each element joined to one or two
    elements of the layer just below and every non-top element to one above,
    so all maximal chains have eight elements.  ``bounded`` adds ``bot`` and
    ``top`` at drawn declaration positions.
    """
    rng = SplitMix64(seed)
    names = [f"v{i}" for i in range(n)]
    pairs = []
    if shape == "sparse":
        for j in range(1, n):
            pairs += [(names[rng.below(j)], names[j]) for _ in range(rng.below(4))]
    elif shape == "tree":
        for i in range(n - 1):
            pairs.append((names[i], names[i + 1 + rng.below(n - 1 - i)]))
    else:
        layers = [list(range(k * n // 8, (k + 1) * n // 8)) for k in range(8)]
        for lower, upper in zip(layers, layers[1:]):
            for j in upper:
                pairs += [(names[lower[rng.below(len(lower))]], names[j])
                          for _ in range(1 + rng.below(2))]
            for i in lower:
                pairs.append((names[i], names[upper[rng.below(len(upper))]]))
    declared = shuffled(rng, names)
    if bounded:
        pairs += [("bot", x) for x in names] + [(x, "top") for x in names]
        for extra in ("bot", "top"):
            declared.insert(rng.below(len(declared) + 1), extra)
    return declared, pairs


def poset_text(declared, pairs):
    return "".join(f"elem {x}\n" for x in declared) + "".join(f"{x} < {y}\n" for x, y in pairs)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), captured.err
    return captured.out


def test_poset_commands_match_the_reference(tmp_path, capsys):
    seen = set()
    for seed, (n, shape, bounded) in enumerate(
        product((100, 250, 400), ("sparse", "tree", "graded"), (False, True)), start=1
    ):
        declared, pairs = random_dag(seed, n, shape, bounded)
        order = ref.Order(declared, pairs)
        path = tmp_path / f"dag{seed}.poset"
        path.write_text(poset_text(declared, pairs), encoding="utf-8")
        expected = {
            "check": ref.check_json(order),
            "levels": ref.levels_json(order, "primal"),
            "levels --dual": ref.levels_json(order, "dual"),
            "elcc": ref.elcc_json(order),
            "equiv": ref.equiv_json(order),
        }
        for request, want in expected.items():
            command, *flags = request.split()
            got = run(capsys, command, str(path), *flags, "--json")
            assert got == want + "\n", f"{request} on {n} {shape} bounded={bounded}"
        seen.add((order.is_lattice(), order.elcc(), order.equivalent()))
    # the cases reach both answers of every decision
    for flag in range(3):
        assert {s[flag] for s in seen} == {False, True}


def table_cases():
    """(domain, codomain, arity, table) with about 10**4 entries each.

    One table takes drawn values; the other sends ``xs`` to codomain chain
    position ``min(5, (w . d(xs)) // 4)`` for dual levels ``d`` and weights
    ``w`` that differ per axis, so it is monotone.  Neither is symmetric in
    its arguments.
    """
    cases = []
    for seed, (n, arity) in enumerate(((100, 2), (22, 3)), start=50):
        rng = SplitMix64(seed)
        dom = ref.Order(*random_dag(seed, n, "sparse", bounded=seed % 2 == 0))
        cod = ref.Order(*random_dag(seed + 100, 12, "sparse", bounded=False))
        keys = list(product(dom.names, repeat=arity))
        drawn = {xs: cod.names[rng.below(len(cod))] for xs in keys}
        cases.append((dom, cod, arity, drawn))
        steps = [f"c{i}" for i in range(6)]
        chain = ref.Order(steps, list(zip(steps, steps[1:])))
        weights = (4, 2, 1)[-arity:][::-1]
        level = dict(zip(dom.names, dom.dual))
        graded = {
            xs: steps[min(5, sum(w * level[x] for w, x in zip(weights, xs)) // 4)] for xs in keys
        }
        cases.append((dom, chain, arity, graded))
    return cases


def order_text(order):
    names = order.names
    covers = [(x, names[j]) for i, x in enumerate(names) for j in ref.bits(order.cover[i])]
    return poset_text(names, covers)


def test_extend_matches_the_reference(tmp_path, capsys):
    directions = ("primal", "dual")
    monotone_kept = 0
    for index, (dom, cod, arity, table) in enumerate(table_cases()):
        assert any(table[xs] != table[xs[::-1]] for xs in table)
        paths = [str(tmp_path / f"{index}.{ext}") for ext in ("dom", "cod", "map")]
        Path(paths[0]).write_text(order_text(dom), encoding="utf-8")
        Path(paths[1]).write_text(order_text(cod), encoding="utf-8")
        rows = "".join(f"{' '.join(xs)} -> {y}\n" for xs, y in table.items())
        Path(paths[2]).write_text(f"arity {arity}\n{rows}", encoding="utf-8")
        for mode, dom_dir, cod_dir in product(("over", "under"), directions, directions):
            flags = ["--domain-dual"] * (dom_dir == "dual")
            flags += ["--codomain-dual"] * (cod_dir == "dual")
            got = run(capsys, "extend", *paths, "--mode", mode, *flags, "--json")
            want = ref.extension_json(dom, cod, arity, table, mode, dom_dir, cod_dir)
            assert got == want + "\n", f"table {index}, {mode} {dom_dir} {cod_dir}"
            monotone_kept += '"monotone":true' in got
    assert monotone_kept


def _decimal(value, short):
    whole, cents = divmod(value, 100)
    if short and cents % 10 == 0:  # "1.5" for "1.50": equal values, other texts
        return f"{whole}.{cents // 10}"
    return f"{whole}.{cents:02d}"


def test_rank_matches_the_reference(tmp_path, capsys):
    rng = SplitMix64(77)
    items = []
    for i in range(1000):
        lo = rng.below(1000)
        hi = lo + rng.below(300)
        texts = _decimal(lo, rng.chance(0.5)), _decimal(hi, rng.chance(0.5))
        items.append((f"i{i}", lo, hi, *texts))
    path = tmp_path / "scores.txt"
    path.write_text("".join(f"{name} {a} {b}\n" for name, _, _, a, b in items), encoding="utf-8")
    for direction, k in (("primal", 1), ("primal", 400), ("dual", 1000)):
        flags = ["--dual"] * (direction == "dual")
        got = run(capsys, "rank", str(path), "-k", str(k), *flags, "--json")
        assert got == ref.ranking_json(items, k, direction) + "\n", (direction, k)
