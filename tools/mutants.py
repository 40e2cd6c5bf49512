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

FORMATS = "src/posetlin/formats.py"
POSET = "src/posetlin/poset.py"

# parse_poset's comment pattern, as written in its source: every line boundary
# of str.splitlines
LINE_BREAKS = ["\\n", "\\r", "\\x0b", "\\x0c", "\\x1c", "\\x1d", "\\x1e", "\\x85", "\\u2028", "\\u2029"]


def _comment_pattern(breaks):
    return '_COMMENT = re.compile("#[^' + "".join(breaks) + ']*")'


MUTANTS = [
    *(
        Mutant(
            f"parse_poset's comment class without {brk}",
            FORMATS,
            _comment_pattern(LINE_BREAKS),
            _comment_pattern([b for b in LINE_BREAKS if b != brk]),
            ["tests/test_formats.py"],
        )
        for brk in LINE_BREAKS
    ),
    Mutant(
        "parse_poset cuts comments to nothing, so a '\\r' and a '\\n' around one close up",
        FORMATS,
        '_COMMENT.sub(" ", text)',
        '_COMMENT.sub("", text)',
        ["tests/test_formats.py"],
    ),
    Mutant(
        "parse_poset without the '<' count check",
        FORMATS,
        'if text.count("<") != sum(map(len, succ)):',
        "if False:",
        ["tests/test_formats.py"],
    ),
    Mutant(
        "parse_poset's fault rescan numbers lines from 2",
        FORMATS,
        "for lineno, line in enumerate(text.splitlines(), start=1):",
        "for lineno, line in enumerate(text.splitlines(), start=2):",
        ["tests/test_formats.py"],
    ),
    Mutant(
        "Poset._layers takes the shortest walk up",
        POSET,
        "layer[i] = 1 + max(map(at, succ[i]))",
        "layer[i] = 1 + min(map(at, succ[i]))",
        ["tests/test_poset.py", "tests/test_levels.py"],
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
