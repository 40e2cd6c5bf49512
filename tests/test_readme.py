"""README as the behaviour contract: its names, overview snippet, caps and claims."""

import ast
import re
from pathlib import Path
from types import ModuleType

import golden
import posetlin
from posetlin import errors, formats, levels, mappings, oracle, poset

README = Path(__file__).resolve().parents[1] / "README.md"


def _package_name(name):
    """True iff ``name`` is a public module-level name of a posetlin module,
    not one those modules import from the standard library."""
    for module in (errors, formats, levels, mappings, oracle, poset):
        obj = getattr(module, name, None)
        if obj is None or isinstance(obj, ModuleType) or name.startswith("_"):
            continue
        if getattr(obj, "__module__", "posetlin").startswith("posetlin"):  # constants have none
            return True
    return False


def test_readme_library_overview_names_only_exported_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library overview\n", 1)[1].split("\n## ", 1)[0]
    imported = {
        name.strip()
        for line in section.splitlines()
        if line.startswith("from posetlin import ")
        for name in line.removeprefix("from posetlin import ").split(",")
    }
    # a bare name in backticks, alone or called; ``posetlin.mappings.X`` is qualified
    introduced = {name for name in re.findall(r"`(\w+)[`(]", section) if _package_name(name)}
    assert {"PRIMAL", "build_poset"} <= imported
    assert {"MappingTable", "brute_levels", "MAX_BRUTE_RANK", "emit_json"} <= introduced
    assert sorted((imported | introduced) - set(posetlin.__all__)) == []


def _section(title):
    """The text of README's ``## title`` section, up to the next one."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_overview_snippet_runs_and_its_results_hold():
    code = _section("Library overview").split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace = {}
    results = 0
    for statement in ast.parse(code).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
            continue
        # "# [['bot'], ...]", "# 1  (level index)", "# False: maximal chains ...": the
        # literal runs up to a colon, two spaces or the end of the comment
        comment = lines[statement.end_lineno - 1].partition("#")[2]
        expected = re.match(r"\s*(.+?)(?::\s|\s{2,}|$)", comment).group(1)
        got = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
        assert got == ast.literal_eval(expected), ast.unparse(statement)
        results += 1
    assert results >= 4


def test_readme_states_every_cap_as_its_constant():
    text = README.read_text(encoding="utf-8")
    stated = set()
    for module, name, value in re.findall(r"`(?:posetlin\.(\w+)\.)?(MAX_\w+)` = (10\^\d+|\d+)", text):
        base, _, power = value.partition("^")
        owner = getattr(posetlin, module) if module else posetlin
        assert getattr(owner, name) == int(base) ** int(power or 1), name
        stated.add(name)
    caps = {name for name in vars(oracle) if name.startswith("MAX_")}
    assert len(caps) == 7
    assert stated == caps | {"MAX_TABLE_ENTRIES"}
    table_cap = re.findall(r"exceeds the cap\s+of (\d+) entries", text)
    assert table_cap and {int(cap) for cap in table_cap} == {mappings.MAX_TABLE_ENTRIES}
    limit = formats._MAX_EXPONENT
    exponent = re.findall(r"exponent may be at most (\d+)|more than (\d+)\s+digits", text)
    assert [int(a or b) for a, b in exponent] == [limit, limit]
    assert re.findall(r"`1e(\d+)` is a parse error", text) == [str(limit + 1)]
    scale = re.findall(r"beyond (\d+) bits", text)
    assert scale and {int(bits) for bits in scale} == {formats._MAX_SCALE_BITS}


def test_readme_claims_table_names_exported_functions_and_existing_tests():
    tests = Path(__file__).resolve().parent
    defined = set(re.findall(r"^def (test_\w+)\(", "".join(
        path.read_text(encoding="utf-8") for path in sorted(tests.glob("test_*.py"))), re.M))
    criteria = {int(n) for n in re.findall(r"^def test_criterion_(\d+)_", (
        tests / "test_acceptance.py").read_text(encoding="utf-8"), re.M)}
    rows = [line for line in _section("Claims").splitlines() if line.startswith("| ")][1:]
    assert len(rows) >= 5
    for row in rows:
        claim, implemented, checked = [cell.strip() for cell in row.strip("|").split("|")]
        functions = re.findall(r"`(\w+)`", implemented)
        assert functions and all(
            name in posetlin.__all__ and callable(getattr(posetlin, name)) for name in functions
        ), row
        numbers = [int(n) for n in re.findall(r"\d+", re.sub(r"`[^`]*`", "", checked))]
        named = re.findall(r"`(test_\w+)`", checked)
        assert numbers or named, row
        assert set(numbers) <= criteria, row
        assert set(named) <= defined, row


def test_readme_file_format_examples_are_the_golden_corpus_files():
    blocks = re.findall(r"```\n(.*?)```", _section("File formats"), re.S)
    assert blocks == list(golden.README_FILES.values())
