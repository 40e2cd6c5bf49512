"""End-to-end CLI behaviour, including exit codes and JSON output."""

import argparse
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetlin
from posetlin import (
    DUAL,
    PRIMAL,
    Linearisation,
    MappingTable,
    SplitMix64,
    cli,
    compute_levels,
    extend,
    formats,
    random_poset,
)
from posetlin.cli import main
import golden
from helpers import EDGE_PROBS, corpus, extend_text_lines, main_via_root, read_text_mode

ABC_FILE = """\
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

DIAMOND_FILE = "elem bot\nelem a\nelem b\nelem top\nbot < a\na < top\nbot < b\nb < top\n"

F_MAPPING = "arity 1\nbot -> bot\na -> top\nb -> top\nc -> c\ntop -> top\n"

SCORES_FILE = "p 0.9 1.0\nq 0.2 0.4\nr 0.1 0.8\n"


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_a_summary(files, capsys):
    poset = files("abc.poset", ABC_FILE)
    code, out, _ = run(capsys, "check", poset)
    assert code == 0
    assert "elements: 5" in out
    assert "lattice: True" in out
    assert "elcc: False" in out


def test_check_json(files, capsys):
    poset = files("abc.poset", ABC_FILE)
    code, out, _ = run(capsys, "check", poset, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["elements"] == 5
    assert payload["strict_pairs"] == 8
    assert payload["linear"] is False


def test_levels_text_output(files, capsys):
    poset = files("abc.poset", ABC_FILE)
    code, out, _ = run(capsys, "levels", poset)
    assert code == 0
    assert out == "0: bot\n1: a\n2: b c\n3: top\n"


def test_levels_json_output(files, capsys):
    poset = files("abc.poset", ABC_FILE)
    code, out, _ = run(capsys, "levels", poset, "--json")
    assert code == 0
    assert out.strip() == '{"direction":"primal","classes":[["bot"],["a"],["b","c"],["top"]]}'


def test_levels_dual_json_output(files, capsys):
    poset = files("abc.poset", ABC_FILE)
    code, out, _ = run(capsys, "levels", poset, "--dual", "--json")
    assert code == 0
    assert out.strip() == '{"direction":"dual","classes":[["bot"],["a","c"],["b"],["top"]]}'


# z and a share the primal level, w and a the dual one; the declared order of
# each pair is neither their name order nor the order Kahn's sort lists them in
UNSORTED_FILE = "elem top\nelem z\nelem w\nelem a\nw < z\nz < top\na < top\n"


@pytest.mark.parametrize(
    "flags, classes",
    [([], [["w"], ["z", "a"], ["top"]]), (["--dual"], [["w", "a"], ["z"], ["top"]])],
)
def test_levels_list_class_members_in_declaration_order(files, capsys, flags, classes):
    poset = files("unsorted.poset", UNSORTED_FILE)
    direction = "dual" if flags else "primal"
    code, out, _ = run(capsys, "levels", poset, "--json", *flags)
    assert (code, out) == (0, json.dumps({"direction": direction, "classes": classes},
                                         separators=(",", ":")) + "\n")
    code, out, _ = run(capsys, "levels", poset, *flags)
    assert (code, out) == (0, "".join(f"{i}: {' '.join(c)}\n" for i, c in enumerate(classes)))


def test_levels_oracle_cross_check(files, capsys):
    poset = files("abc.poset", ABC_FILE)
    code, _, _ = run(capsys, "levels", poset, "--oracle")
    assert code == 0


def test_levels_oracle_mismatch_names_the_first_differing_element(files, capsys, monkeypatch):
    poset = files("abc.poset", ABC_FILE)
    brute_levels = cli.brute_levels

    def perturbed(p, direction):
        lin = brute_levels(p, direction)
        layer = tuple([{"c": 2, "top": 3}.get(x, k) for x, k in zip(p.elements, lin.layer)])
        return Linearisation(lin.source, lin.direction, layer, lin.num_classes)

    monkeypatch.setattr(cli, "brute_levels", perturbed)
    code, out, err = run(capsys, "levels", poset, "--oracle")
    assert (code, out) == (1, "")
    assert err == "error: level of 'c' is 1, brute force gives 2\n"


def test_elcc_oracle_mismatch_names_the_chain_lengths(files, capsys, monkeypatch):
    abc = files("abc.poset", ABC_FILE)
    monkeypatch.setattr(cli, "satisfies_elcc", lambda p: True)
    code, out, err = run(capsys, "elcc", abc, "--oracle")
    assert (code, out) == (1, "")
    assert err == "error: ELCC True disagrees with chain lengths [3, 4]\n"


def test_elcc(files, capsys):
    abc = files("abc.poset", ABC_FILE)
    diamond = files("diamond.poset", DIAMOND_FILE)
    code, out, _ = run(capsys, "elcc", abc)
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "elcc", diamond)
    assert (code, out) == (0, "true\n")


def test_elcc_with_oracle_lengths(files, capsys):
    abc = files("abc.poset", ABC_FILE)
    code, out, _ = run(capsys, "elcc", abc, "--oracle", "--json")
    assert code == 0
    assert json.loads(out) == {"elcc": False, "chain_lengths": [3, 4]}


def test_elcc_oracle_beyond_the_chain_enumeration_cap(files, capsys):
    long_chain = files("chain.poset", "".join(f"c{i} < c{i + 1}\n" for i in range(14)))
    code, out, err = run(capsys, "elcc", long_chain, "--oracle")
    assert (code, out) == (1, "")
    assert "capped" in err


def test_equiv(files, capsys):
    abc = files("abc.poset", ABC_FILE)
    diamond = files("diamond.poset", DIAMOND_FILE)
    assert run(capsys, "equiv", abc)[:2] == (0, "false\n")
    assert run(capsys, "equiv", diamond)[:2] == (0, "true\n")
    code, out, _ = run(capsys, "equiv", abc, "--json")
    assert json.loads(out) == {"equivalent": False}


def test_extend_under_json(files, capsys):
    abc = files("abc.poset", ABC_FILE)
    mapping = files("f.map", F_MAPPING)
    code, out, _ = run(capsys, "extend", abc, abc, mapping, "--mode", "under", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "under"
    assert payload["entries"] == [[[0], 0], [[1], 3], [[2], 2], [[3], 3]]
    assert payload["monotone"] is False


def test_extend_text_output(files, capsys):
    abc = files("abc.poset", ABC_FILE)
    mapping = files("f.map", F_MAPPING)
    code, out, _ = run(capsys, "extend", abc, abc, mapping, "--mode", "over")
    assert code == 0
    assert "[bot] -> [bot]" in out
    assert "[a] -> [top]" in out
    assert "monotone: True" in out


def test_extend_with_dual_directions(files, capsys):
    abc = files("abc.poset", ABC_FILE)
    mapping = files("f.map", F_MAPPING)
    code, out, _ = run(
        capsys, "extend", abc, abc, mapping,
        "--mode", "under", "--domain-dual", "--codomain-dual", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["domain"]["direction"] == "dual"
    assert payload["codomain"]["direction"] == "dual"


EXTEND_DOMAIN = {1: 12, 2: 8, 3: 5}
DUAL_FLAGS = ([], ["--domain-dual"], ["--codomain-dual"], ["--domain-dual", "--codomain-dual"])


@settings(max_examples=60)
@given(
    arity=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    probs=st.tuples(st.sampled_from(EDGE_PROBS), st.sampled_from(EDGE_PROBS)),
    data=st.data(),
)
def test_extend_text_equals_the_per_entry_print_loop_on_drawn_tables(
    tmp_path_factory, arity, seed, probs, data
):
    dom = random_poset(seed, data.draw(st.integers(1, EXTEND_DOMAIN[arity])), probs[0])
    cod = random_poset(seed + 1, data.draw(st.integers(1, 6)), probs[1])
    keys = list(product(dom.elements, repeat=arity))
    images = st.sampled_from(cod.elements)
    images = data.draw(st.lists(images, min_size=len(keys), max_size=len(keys)))
    table = MappingTable(dom, arity, cod, dict(zip(keys, images)))
    rows = "".join(f"{' '.join(k)} -> {v}\n" for k, v in zip(keys, images))
    root = tmp_path_factory.mktemp("extend")
    paths = []
    for name, text in (("dom", formats.render_poset(dom)), ("cod", formats.render_poset(cod)),
                       ("map", f"arity {arity}\n{rows}")):
        (root / name).write_text(text, encoding="utf-8")
        paths.append(str(root / name))
    for mode, dual in product(("over", "under"), DUAL_FLAGS):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["extend", *paths, "--mode", mode, *dual]) == 0
        lins = [
            compute_levels(p, DUAL if flag in dual else PRIMAL)
            for p, flag in ((dom, "--domain-dual"), (cod, "--codomain-dual"))
        ]
        cm = extend(table, *lins, mode)
        assert out.getvalue().splitlines() == extend_text_lines(cm), (mode, dual)


class _LongestWrite(io.StringIO):
    """A stdout that keeps what is written and the length of its longest write."""

    longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        return super().write(text)


def test_extend_text_streams_its_rows_in_short_writes(files):
    # 40**3 = 64,000 entries, about 1.9 MB of text: one write of it all would
    # hold a second copy of the whole output
    texts = {
        "dom.poset": "".join(f"x{i} < x{i + 1}\n" for i in range(39)),
        "cod.poset": "".join(f"y{i} < y{i + 1}\n" for i in range(6)),
        "f.map": "arity 3\n" + "".join(
            f"x{i} x{j} x{k} -> y{(i + j + k) // 18}\n" for i, j, k in product(range(40), repeat=3)
        ),
    }
    out = _LongestWrite()
    with redirect_stdout(out):
        assert main(["extend", *map(files, texts, texts.values()), "--mode", "over"]) == 0
    text = out.getvalue()
    assert len(text) > 1_000_000 and text.count("\n") == 64_003
    assert out.longest <= 64 * 1024
    dom, cod = (formats.parse_poset(texts[name]) for name in ("dom.poset", "cod.poset"))
    table = formats.parse_mapping(texts["f.map"], dom, cod)
    cm = extend(table, compute_levels(dom, PRIMAL), compute_levels(cod, PRIMAL), "over")
    assert text.splitlines() == extend_text_lines(cm)


def test_witness_ordered(files, capsys):
    diamond = files("diamond.poset", DIAMOND_FILE)
    ranks = files("ranks.txt", "bot 0\na 1\nb 2\ntop 3\n")
    code, out, _ = run(capsys, "witness", diamond, ranks, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "ordered"
    assert payload["pair"] == ["a", "b"]
    assert payload["map"] == {"bot": "bot", "a": "b", "b": "a", "top": "top"}


def test_witness_collapsed_text(files, capsys):
    diamond = files("diamond.poset", DIAMOND_FILE)
    ranks = files("ranks.txt", "bot 0\na 1\nb 1\ntop 2\n")
    code, out, _ = run(capsys, "witness", diamond, ranks)
    assert code == 0
    assert "case: collapsed" in out
    assert "f(b) = top" in out


def test_witness_with_rank_violation_is_a_domain_error(files, capsys):
    diamond = files("diamond.poset", DIAMOND_FILE)
    ranks = files("ranks.txt", "bot 5\na 1\nb 1\ntop 2\n")
    code, _, err = run(capsys, "witness", diamond, ranks)
    assert code == 1
    assert "rank" in err


def test_witness_names_the_first_violated_pair_under_every_hash_seed(files):
    # the rank check once iterated a frozenset, so the message followed the
    # string hash seed
    lattice = files("abc.poset", "bot < a\nbot < c\na < b\nb < top\nc < top\n")
    ranks = files("ranks.txt", "bot 3\na 1\nb 2\nc 1\ntop 0\n")
    src = str(Path(posetlin.__file__).resolve().parents[1])
    messages = set()
    for seed in ("1", "2", "3", "4", "5", "6"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "posetlin", "witness", lattice, ranks],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        messages.add(done.stderr)
    assert messages == {"error: 'bot' < 'a' but rank(bot) = 3 >= rank(a) = 1\n"}


def test_witness_on_a_chain_is_a_domain_error(files, capsys):
    chain_file = files("chain.poset", "a < b\nb < c\n")
    ranks = files("ranks.txt", "a 0\nb 1\nc 2\n")
    code, _, err = run(capsys, "witness", chain_file, ranks)
    assert code == 1
    assert "linear" in err


def test_rank_text_output(files, capsys):
    scores = files("scores.txt", SCORES_FILE)
    code, out, _ = run(capsys, "rank", scores, "-k", "1")
    assert code == 0
    assert out == "group 1: p\n"


def test_rank_json_output(files, capsys):
    scores = files("scores.txt", SCORES_FILE)
    code, out, _ = run(capsys, "rank", scores, "-k", "1", "--json")
    assert code == 0
    assert out.strip() == (
        '{"direction":"primal","k":1,'
        '"groups":[{"items":["p"],"intervals":[["0.9","1.0"]]}]}'
    )


def test_rank_reads_plain_decimals_with_no_fraction(files, capsys, monkeypatch):
    scores = files("scores.txt", SCORES_FILE + "s 0.50 0.5\nt -1 2.\nu -.25 0\n")
    expected = run(capsys, "rank", scores, "-k", "3", "--json")

    def no_fraction(*args):
        raise AssertionError("a plain decimal built a Fraction")

    monkeypatch.setattr(formats, "Fraction", no_fraction)
    assert run(capsys, "rank", scores, "-k", "3", "--json") == expected
    with pytest.raises(AssertionError):  # the guard is live
        main(["rank", files("fraction.txt", "p 1/2 1\n"), "-k", "3", "--json"])


def test_rank_emits_further_groups_for_larger_k(files, capsys):
    scores = files("scores.txt", SCORES_FILE)
    code, out, _ = run(capsys, "rank", scores, "-k", "2")
    assert code == 0
    assert out == "group 1: p\ngroup 2: q r\n"


def test_parse_errors_exit_with_2(files, capsys):
    bad = files("bad.poset", "elem x\nnot a poset line\n")
    code, _, err = run(capsys, "levels", bad)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("text", [
    "elem x\nelem x\nnot a poset line\n",
    "x < y\ny < x\nnot a poset line\n",
])
def test_a_parse_error_exits_with_2_before_a_duplicate_or_a_cycle(files, capsys, text):
    bad = files("bad.poset", text)
    code, out, err = run(capsys, "levels", bad)
    assert (code, out, err) == (2, "", "error: line 3: unrecognised line 'not a poset line'\n")


def test_an_invalid_name_exits_with_2_naming_its_line(files, capsys):
    bad = files("bad.poset", "elem x\na < b<c\nnot a poset line\n")
    code, out, err = run(capsys, "equiv", bad)
    assert (code, out, err) == (2, "", "error: line 2: invalid element name 'b<c'\n")


def test_rank_score_exponent_beyond_the_bound_exits_with_2(files, capsys):
    scores = files("scores.txt", "q 0.2 0.4\np 0 1e4301\n")
    code, out, err = run(capsys, "rank", scores, "-k", "1")
    assert (code, out) == (2, "")
    assert "line 2: exponent of '1e4301' exceeds 4300" in err


def test_rank_plain_score_beyond_the_digit_limit_exits_with_2(files, capsys):
    for field in ("1" * 4301, "0." + "1" * 4301):
        scores = files("scores.txt", f"q 0.2 0.4\np 0 {field}\n")
        code, out, err = run(capsys, "rank", scores, "-k", "1")
        assert (code, out) == (2, "")
        assert "line 2: scores must be decimals" in err


def test_domain_errors_exit_with_1(files, capsys):
    cyclic = files("cyclic.poset", "x < y\ny < x\n")
    code, _, err = run(capsys, "levels", cyclic)
    assert code == 1
    assert "cycle" in err


def test_missing_file_exits_with_1(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.poset")
    assert code == 1
    assert err


def test_oversized_mapping_is_rejected(files, capsys, tmp_path):
    names = [f"e{i}" for i in range(101)]
    poset = files("big.poset", "".join(f"elem {n}\n" for n in names))
    mapping = files("big.map", "arity 3\n")
    code, _, err = run(capsys, "extend", poset, poset, mapping, "--mode", "over")
    assert code == 1
    assert "cap" in err
    three = files("three.poset", "elem x\nelem y\nelem z\n")
    hostile = files("hostile.map", "arity 20000\n")
    code, out, err = run(capsys, "extend", three, three, hostile, "--mode", "over")
    assert (code, out) == (1, "")
    assert err == (
        "error: mapping table of arity 20000 over 3 domain elements "
        "exceeds the cap of 1000000 entries\n"
    )


def test_over_cap_mapping_header_is_rejected_before_its_rows(files, capsys):
    # the cap is decided from the header, so the malformed rows after it are never read
    three = files("three.poset", "elem x\nelem y\nelem z\n")
    for arity in (20, 20000):
        hostile = files("hostile.map", f"arity {arity}\nx -> y\nnot a row\n")
        code, out, err = run(capsys, "extend", three, three, hostile, "--mode", "over")
        assert (code, out) == (1, "")
        assert err == (
            f"error: mapping table of arity {arity} over 3 domain elements "
            "exceeds the cap of 1000000 entries\n"
        )
    under = files("under.map", "arity 12\nx -> y\n")  # 3 ** 12 entries are within the cap
    code, out, err = run(capsys, "extend", three, three, under, "--mode", "over")
    assert (code, out) == (2, "")
    assert "line 2" in err


def _fresh_process(argv, env):
    done = subprocess.run(
        [sys.executable, "-m", "posetlin", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_reused_parser_leaks_no_state_between_calls(files, capsys, monkeypatch):
    # usage text wraps at the terminal width: fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    abc = files("abc.poset", ABC_FILE)
    scores = files("scores.txt", SCORES_FILE)
    mapping = files("f.map", F_MAPPING)
    bad = files("bad.poset", "elem x\nnot a poset line\n")
    sequence = [
        ["levels", abc, "--json", "--dual"],
        ["levels", abc],
        ["rank", scores, "-k", "1", "--dual"],
        ["rank", scores, "-k", "1"],
        ["levels", bad],
        ["rank", scores],  # argv error: -k is required
        ["extend", abc, abc, mapping, "--mode", "over", "--domain-dual"],
        ["extend", abc, abc, mapping, "--mode", "under"],
        ["levels", abc, "--json", "--dual"],
    ]
    src = str(Path(posetlin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(argv, env), argv


def test_parser_is_built_once_per_process(files, capsys, monkeypatch):
    abc = files("abc.poset", ABC_FILE)
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    built = []
    for argv in (["levels", abc], ["equiv", abc], ["levels", abc, "--dual"]):
        assert run(capsys, *argv)[0] == 0
        built.append(len(progs))
    assert progs.count("posetlin") == 1  # one root parser, plus its subcommands
    assert built == [built[0]] * 3


def test_cli_import_pulls_in_no_introspection_modules():
    # dataclasses imports inspect, ast, dis and tokenize: about 1 MB of
    # resident memory that no posetlin code path needs.  -S keeps site hooks
    # out, so only the standard library and posetlin are imported.
    src = str(Path(posetlin.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import posetlin.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_bad_k_exits_with_1(files, capsys):
    scores = files("scores.txt", SCORES_FILE)
    code, _, _ = run(capsys, "rank", scores, "-k", "0")
    assert code == 1


def test_empty_scores_exit_with_1(files, capsys):
    scores = files("scores.txt", "# nothing here\n")
    code, _, err = run(capsys, "rank", scores, "-k", "1")
    assert code == 1
    assert "no scored items" in err


def test_levels_of_an_empty_poset_exit_with_1(files, capsys):
    empty = files("empty.poset", "# no elements\n")
    code, _, err = run(capsys, "levels", empty)
    assert code == 1
    assert "empty" in err


@pytest.mark.parametrize(
    "arity, dropped, first",
    [
        (2, ["top top", "b bot", "a c"], "a, c"),
        (3, ["c bot a", "top top top", "bot b b", "bot a top"], "bot, a, top"),
    ],
)
def test_extend_names_the_first_missing_row_in_declaration_order(
    files, capsys, arity, dropped, first
):
    abc = files("abc.poset", ABC_FILE)
    keys = [" ".join(key) for key in product(["bot", "a", "b", "c", "top"], repeat=arity)]
    rows = [f"{key} -> bot\n" for key in keys if key not in dropped]
    random.Random(arity).shuffle(rows)
    mapping = files("gaps.map", f"arity {arity}\n" + "".join(rows))
    code, out, err = run(capsys, "extend", abc, abc, mapping, "--mode", "over")
    assert (code, out, err) == (1, "", f"error: mapping undefined for tuple ({first})\n")


def test_extend_reports_a_conflict_before_an_earlier_unknown_element(files, capsys):
    abc = files("abc.poset", ABC_FILE)
    text = "arity 1\nzz -> bot\nbot -> bot\na -> top\nbot -> top\n"
    mapping = files("clash.map", text)
    code, out, err = run(capsys, "extend", abc, abc, mapping, "--mode", "over")
    assert (code, out, err) == (2, "", "error: line 5: conflicting rows for tuple (bot)\n")


@pytest.mark.parametrize(
    "rows, code, message",
    [
        ("bot -> zz\nbot -> bot\n", 2, "line 3: conflicting rows for tuple (bot)"),
        ("zz -> bot\na -> top\nzz -> a\n", 2, "line 4: conflicting rows for tuple (zz)"),
        ("a -> top\nyy -> bot\nbot -> bot\nxx -> bot\n", 1, "unknown domain element 'yy'"),
        ("bot -> bot\nzz -> a\n", 1, "unknown domain element 'zz'"),
    ],
)
def test_extend_reports_mapping_errors_in_the_documented_order(files, capsys, rows, code, message):
    # a conflict, also one after an unknown value or between unknown
    # arguments; else the first unknown name; else the first missing tuple
    abc = files("abc.poset", ABC_FILE)
    mapping = files("rows.map", "arity 1\n" + rows)
    got = run(capsys, "extend", abc, abc, mapping, "--mode", "over")
    assert got == (code, "", f"error: {message}\n")


def test_readme_command_line_block_names_every_subcommand():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("posetlin ")]
    assert sorted(named) == sorted(cli._build_parser()[1])


DECK_FILES = {
    "abc.poset": ABC_FILE,
    "diamond.poset": DIAMOND_FILE,
    "cycle.poset": "x < y\ny < x\n",
    "f.map": F_MAPPING,
    "scores.txt": SCORES_FILE,
    "ranks.txt": "bot 0\na 1\nb 2\ntop 3\n",
}


@pytest.fixture(scope="module")
def deck(tmp_path_factory):
    """Real files for every command, a directory and a missing path, by name."""
    root = tmp_path_factory.mktemp("deck")
    paths = {"dir": str(root), "missing": str(root / "missing.poset")}
    for name, text in DECK_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
        paths[name] = str(root / name)
    return paths


@pytest.fixture(scope="module")
def recorded():
    """Fresh parsers whose handlers record the namespace they are called with."""
    cli._build_parser.cache_clear()
    seen = []
    for command in cli._build_parser()[1].values():
        handler = command.get_default("func")

        def record(args, handler=handler):
            seen.append(dict(vars(args)))
            handler(args)

        command.set_defaults(func=record)
    yield seen
    cli._build_parser.cache_clear()


def _outcome(entry, argv, seen):
    """Exit code (or ``SystemExit`` code), stdout, stderr and handler namespaces."""
    seen.clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue(), list(seen)


# one well-formed argv per command, which the draws then cut and extend
TEMPLATES = {
    "check": ["abc.poset"],
    "levels": ["abc.poset", "--oracle"],
    "elcc": ["abc.poset", "--oracle"],
    "equiv": ["diamond.poset"],
    "extend": ["abc.poset", "abc.poset", "f.map", "--mode", "over"],
    "witness": ["diamond.poset", "ranks.txt"],
    "rank": ["scores.txt", "-k", "2"],
}
NEAR_MISSES = ["lev", "CHECK", "", "levelsx", "ran", "--json", "-h", "--help", "--", "-k5"]
TOKENS = [
    "--json", "--js", "--j", "--dual", "--du", "--d", "--oracle", "--ora", "--o",
    "--mode", "--mo", "--mode=over", "--mode=under", "--mode=sideways", "--mode=",
    "over", "under", "sideways", "--domain-dual", "--dom", "--codomain-dual", "--co",
    "-k", "-k5", "-k=5", "-k=x", "-k-3", "x", "-3", "5", "0", "--", "-h", "--help",
    "-x", "--nope", "-", *DECK_FILES, "dir", "missing",
]


def _drawn_argv(choose, paths):
    """An argv built from ``choose(options)`` picks: a template cut and
    extended by drawn tokens, its command sometimes replaced by a near miss
    or preceded by one, and now and then empty."""
    if choose(range(25)) == 0:
        return []
    command = choose(list(TEMPLATES))
    rest = list(TEMPLATES[command])
    for _ in range(min(choose(range(3)), len(rest))):
        del rest[choose(range(len(rest)))]
    for _ in range(choose(range(4))):
        rest.insert(choose(range(len(rest) + 1)), choose(TOKENS))
    if choose(range(6)) == 0:
        command = choose(NEAR_MISSES)
    head = [choose(NEAR_MISSES)] if choose(range(10)) == 0 else []
    return [paths.get(token, token) for token in head + [command] + rest]


HAND_PICKED = [
    [], ["-h"], ["--help"], ["levels", "-h"], ["rank", "--help", "nope"], ["--", "levels"],
    ["lev", "abc.poset"], ["CHECK", "abc.poset"], ["", "abc.poset"], ["--json", "check"],
    ["levels", "abc.poset", "--js", "--du", "--ora"], ["levels", "--", "abc.poset"],
    ["levels", "abc.poset", "extra"], ["check", "abc.poset", "--dual"],
    ["rank", "scores.txt", "-k5"], ["rank", "scores.txt", "-k=2"], ["rank", "scores.txt", "-k", "x"],
    ["rank", "scores.txt", "-k", "-3"], ["rank", "scores.txt"], ["rank", "-k", "1"],
    ["extend", "abc.poset", "abc.poset", "f.map", "--mode", "sideways"],
    ["extend", "abc.poset", "abc.poset", "f.map", "--mo=under", "--dom", "--co"],
    ["extend", "abc.poset", "abc.poset", "f.map", "--mode", "over", "--d"],
    ["witness", "diamond.poset"], ["witness", "diamond.poset", "ranks.txt", "ranks.txt"],
    ["equiv", "dir"], ["elcc", "missing"], ["check", "cycle.poset", "--json"],
]


@pytest.mark.parametrize("argv", HAND_PICKED, ids=[" ".join(a) or "<empty>" for a in HAND_PICKED])
def test_dispatch_matches_the_root_parser_on_hand_picked_argv(deck, recorded, argv):
    argv = [deck.get(token, token) for token in argv]
    assert _outcome(main, argv, recorded) == _outcome(main_via_root, argv, recorded)


def test_dispatch_matches_the_root_parser_on_a_seeded_sweep(deck, recorded):
    rng = SplitMix64(17)
    kinds = set()
    for _ in range(1500):
        argv = _drawn_argv(lambda options: options[rng.below(len(options))], deck)
        outcome = _outcome(main, argv, recorded)
        assert outcome == _outcome(main_via_root, argv, recorded), argv
        code, _, err, _ = outcome
        kinds.add(code)
        kinds.update(text for text in ("unrecognized arguments", "invalid choice") if text in err)
    # the sweep reaches every exit of both the handlers and argparse
    assert kinds == {
        0, 1, 2, ("SystemExit", 0), ("SystemExit", 2), "unrecognized arguments", "invalid choice"
    }


@settings(max_examples=200)
@given(data=st.data())
def test_dispatch_matches_the_root_parser_on_drawn_argv(deck, recorded, data):
    argv = _drawn_argv(lambda options: data.draw(st.sampled_from(options)), deck)
    assert _outcome(main, argv, recorded) == _outcome(main_via_root, argv, recorded)


# each command's argv and the position of the file whose bytes are varied
READERS = {
    "check": (["check", "abc.poset", "--json"], 1),
    "levels": (["levels", "abc.poset"], 1),
    "rank": (["rank", "scores.txt", "-k", "2"], 1),
    "extend-map": (["extend", "abc.poset", "abc.poset", "f.map", "--mode", "over"], 3),
    "extend-dom": (["extend", "abc.poset", "diamond.poset", "f.map", "--mode", "under"], 1),
    "witness": (["witness", "diamond.poset", "ranks.txt", "--json"], 2),
}
PAD = b"# padding\n" * 5000
BYTE_VARIANTS = {
    "crlf": lambda text: text.replace("\n", "\r\n").encode(),
    "cr": lambda text: text.replace("\n", "\r").encode(),
    "cr-crlf-mix": lambda text: text.replace("\n", "\r", 2).replace("\n", "\r\r\n").encode(),
    "nel": lambda text: text.replace("\n", "\x85").encode(),
    "line-separator": lambda text: text.replace("\n", "\u2028").encode(),
    "bom": lambda text: ("\ufeff" + text).encode(),
    "invalid-early": lambda text: b"\xff" + text.encode(),
    "invalid-late": lambda text: text.encode() + PAD + b"\xff\n",
    "invalid-late-crlf": lambda text: (text.encode() + PAD).replace(b"\n", b"\r\n") + b"\xc3(",
    "truncated-tail": lambda text: text.encode() + "é".encode()[:1],
    "directory": None,
    "missing": None,
}


@pytest.mark.parametrize("variant", BYTE_VARIANTS)
@pytest.mark.parametrize("command", READERS)
def test_byte_reader_matches_the_text_mode_reader(deck, tmp_path, monkeypatch, command, variant):
    argv, position = READERS[command]
    argv = [deck.get(token, token) for token in argv]
    make = BYTE_VARIANTS[variant]
    if make is None:
        argv[position] = deck["dir" if variant == "directory" else "missing"]
    else:
        path = tmp_path / Path(argv[position]).name
        path.write_bytes(make(DECK_FILES[path.name]))
        argv[position] = str(path)
    new = _outcome(main, argv, [])[:3]
    monkeypatch.setattr(cli, "_read", read_text_mode)
    assert new == _outcome(main, argv, [])[:3]


def _text_form(command, payload):
    """The text lines of ``command`` whose ``--json`` output is ``payload``:
    ``key: value`` for check, ``true``/``false`` for a verdict, ``f(x) = y``
    for each element of a witness map."""
    if command == "check":
        return [f"{key}: {value}" for key, value in payload.items()]
    if command == "equiv":
        return ["true" if payload["equivalent"] else "false"]
    if command == "elcc":
        lines = ["true" if payload["elcc"] else "false"]
        if "chain_lengths" in payload:
            lines.append(f"maximal chain lengths: {' '.join(map(str, payload['chain_lengths']))}")
        return lines
    return [
        f"case: {payload['case']}",
        f"pair: {' '.join(payload['pair'])}",
        *(f"f({x}) = {y}" for x, y in payload["map"].items()),
        f"violation: {payload['violation']}",
    ]


def _assert_text_is_the_json_in_text_form(capsys, argv):
    code, text, err = run(capsys, *argv)
    assert (code, err) == (0, ""), argv
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, ""), argv
    assert text == "".join(f"{line}\n" for line in _text_form(argv[0], json.loads(out))), argv


@pytest.mark.parametrize("argv", [["check"], ["elcc", "--oracle"], ["equiv"]])
def test_text_output_is_the_json_payload_in_text_form_on_the_corpus(tmp_path, capsys, argv):
    for index, p in enumerate(corpus(60)):
        path = tmp_path / f"p{index}.poset"
        path.write_text(formats.render_poset(p), encoding="utf-8")
        _assert_text_is_the_json_in_text_form(capsys, [argv[0], str(path), *argv[1:]])


@pytest.mark.parametrize("poset, ranks", [
    (golden.README_FILES["lattice.poset"], golden.README_FILES["ranks.txt"]),
    (DIAMOND_FILE, "bot 0\na 1\nb 2\ntop 3\n"),
], ids=["readme-lattice-collapsed", "diamond-ordered"])
def test_witness_text_is_its_json_payload_in_text_form(files, capsys, poset, ranks):
    argv = ["witness", files("lattice.poset", poset), files("ranks.txt", ranks)]
    _assert_text_is_the_json_in_text_form(capsys, argv)
