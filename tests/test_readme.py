"""README's library overview names only what ``posetlin`` exports."""

import re
from pathlib import Path
from types import ModuleType

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
