"""Hand-made mutants of posetlin, each rerun against the tests that must kill it.

    python tools/mutants.py

Run from anywhere; stdlib only, plus the pytest the test suite needs.  For
each mutant the script copies the repository (without ``.git`` and caches)
into a temporary directory, makes one exact text replacement there, and runs
the mutant's test modules with ``pytest -x -q``.  The mutant is killed when
they fail.  The script prints one line per mutant and exits non-zero when a
mutant survives, when its tests cannot run, or when its old text no longer
appears exactly once in its file.  A refactor that moves such a text
re-targets the entry; a surviving mutant is answered with a test.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new tests")

CLI = "src/posetlin/cli.py"
FORMATS = "src/posetlin/formats.py"
LEVELS = "src/posetlin/levels.py"
MAPPINGS = "src/posetlin/mappings.py"
POSET = "src/posetlin/poset.py"

ACCEPTANCE = "tests/test_acceptance.py"
TEST_FORMATS = "tests/test_formats.py"

# the comment pattern every reader cuts with, as written in its source: every
# line boundary of str.splitlines
LINE_BREAKS = ["\\n", "\\r", "\\x0b", "\\x0c", "\\x1c", "\\x1d", "\\x1e", "\\x85", "\\u2028", "\\u2029"]


def _comment_pattern(breaks):
    return '_COMMENT = re.compile("#[^' + "".join(breaks) + ']*")'


# each reader's comment cut as written in its source, "{}" standing for the
# cut text, with enough context that it appears once; and the text it cuts
READER_CUTS = [
    ("_first_fields", "lines = {}.splitlines()", "text[:size]"),
    ("parse_mapping's rows", "rows = {}.splitlines()", "text"),
    *(
        (
            reader,
            "for lineno, line in enumerate({}.splitlines(), start=1):\n"
            "        fields = line.split()\n"
            "        if not fields:\n"
            "            continue\n"
            f"        if len(fields) != {width}:",
            "text",
        )
        for reader, width in (("parse_scores", 3), ("parse_ranks", 2))
    ),
]


MUTANTS = [
    *(
        Mutant(
            f"the comment class without {brk}",
            FORMATS,
            _comment_pattern(LINE_BREAKS),
            _comment_pattern([b for b in LINE_BREAKS if b != brk]),
            [TEST_FORMATS],
        )
        for brk in LINE_BREAKS
    ),
    Mutant(
        "parse_poset cuts comments to nothing, so a '\\r' and a '\\n' around one close up",
        FORMATS,
        'text = _COMMENT.sub(" ", text)',
        'text = _COMMENT.sub("", text)',
        [TEST_FORMATS],
    ),
    *(
        Mutant(
            f"{reader} {what}",
            FORMATS,
            source.format(f'_COMMENT.sub(" ", {text})'),
            source.format(new),
            [TEST_FORMATS],
        )
        for reader, source, text in READER_CUTS
        for what, new in (
            ("cuts comments to nothing, so a '\\r' and a '\\n' around one close up",
             f'_COMMENT.sub("", {text})'),
            ("does not cut comments", text),
        )
    ),
    Mutant(
        "parse_poset without the '<' count check",
        FORMATS,
        'if text.count("<") != sum(map(len, succ)):',
        "if False:",
        [TEST_FORMATS],
    ),
    Mutant(
        "parse_poset's fault rescan numbers lines from 2",
        FORMATS,
        "for lineno, line in enumerate(text.splitlines(), start=1):",
        "for lineno, line in enumerate(text.splitlines(), start=2):",
        [TEST_FORMATS],
    ),
    Mutant(
        "Poset._layers takes the shortest walk up",
        POSET,
        "layer[i] = 1 + max(map(at, succ[i]))",
        "layer[i] = 1 + min(map(at, succ[i]))",
        ["tests/test_poset.py", "tests/test_levels.py"],
    ),
    Mutant(
        "_closure_and_covers keeps every generating pair as a cover",
        POSET,
        "cover[i] = adj & ~reach",
        "cover[i] = adj",
        ["tests/test_poset.py"],
    ),
    # the extend outputs, both read off the rank tuple
    Mutant(
        "ClassMapping._report returns the two flags swapped",
        MAPPINGS,
        "return all(u <= v for u, v in pairs), all(u >= v for u, v in pairs)",
        "return all(u >= v for u, v in pairs), all(u <= v for u, v in pairs)",
        ["tests/test_mappings.py", "tests/test_cli.py"],
    ),
    Mutant(
        "extend's text rows join the argument labels with ' ', not ' x '",
        CLI,
        "{' x '.join(key)} -> {value}",
        "{' '.join(key)} -> {value}",
        ["tests/test_cli.py"],
    ),
    Mutant(
        "emit_json zips the class keys with the ranks reversed",
        FORMATS,
        '"entries": list(zip(keys, value.ranks)),',
        '"entries": list(zip(keys, reversed(value.ranks))),',
        ["tests/test_mappings.py", "tests/test_cli.py"],
    ),
    # one per row of README's Claims table, killed by the tests that row names
    Mutant(
        "claim (i): compute_levels strips maximal elements in both directions",
        LEVELS,
        "layer = (p if direction == PRIMAL else p._dual())._layers()",
        "layer = p._layers()",
        [ACCEPTANCE, "tests/test_levels.py"],
    ),
    Mutant(
        "claim (ii): extend keeps the greatest class in both modes",
        MAPPINGS,
        "sign = 1 if mode == MODE_OVER else -1",
        "sign = 1",
        [ACCEPTANCE, "tests/test_mappings.py"],
    ),
    Mutant(
        "both characters in all four pairs: linearisations_equivalent always says they coincide",
        LEVELS,
        "return all(u + d == k - 1 for u, d in zip(up, down))",
        "return all(u + d <= k - 1 for u, d in zip(up, down))",
        ["tests/test_mappings.py", "tests/test_levels.py"],
    ),
    Mutant(
        "the ELCC: satisfies_elcc lets a maximal element sit below the top dual level",
        LEVELS,
        "if above else g == top",
        "if above else True",
        [ACCEPTANCE, "tests/test_levels.py"],
    ),
    Mutant(
        "no rank function: impossibility_witness maps the ordered pair to itself",
        MAPPINGS,
        "(True, False): b, (False, True): a,",
        "(True, False): a, (False, True): b,",
        [ACCEPTANCE, "tests/test_mappings.py"],
    ),
    Mutant(
        "top-k ranking: rank_items sweeps the intervals in file order, not sorted",
        FORMATS,
        "for key in sorted(first):",
        "for key in first:",
        [ACCEPTANCE, TEST_FORMATS],
    ),
]

IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work", "*.egg-info"
)


def run(mutant):
    """``(ok, report)`` for one mutant: ok iff its text applies once and its tests fail."""
    with tempfile.TemporaryDirectory(prefix="posetlin-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / mutant.path
        source = target.read_text(encoding="utf-8")
        found = source.count(mutant.old)
        if found != 1:
            return False, f"MISSING   {mutant.name}: old text found {found} times in {mutant.path}"
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if result.returncode == 1:  # pytest's code for failed tests
        return True, f"killed    {mutant.name}"
    if result.returncode == 0:
        return False, f"SURVIVED  {mutant.name}"
    tail = "\n".join(result.stdout.splitlines()[-5:] + result.stderr.splitlines()[-5:])
    return False, f"BROKEN    {mutant.name}: pytest exited {result.returncode}\n{tail}"


def main():
    failures = 0
    for mutant in MUTANTS:
        ok, report = run(mutant)
        print(report, flush=True)
        failures += not ok
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
