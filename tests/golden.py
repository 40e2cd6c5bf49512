"""Golden records of the command line's bytes.

A record is ``(argv, exit code, stdout, stderr)`` of one ``posetlin`` request
from the benchmark's decks (``perfbench/workloads.py``) at seeds 1 and 2, run
in process.  A ``chart``, ``corpus`` or ``rank`` request runs as built
(``--json``) and again with ``--json`` dropped.  An ``extend`` request, which
the benchmark serves through the library, runs as ``extend DOM COD MAP --mode
M`` for both modes and all four ``--domain-dual``/``--codomain-dual``
settings, each with ``--json`` and without.  Then come fixed requests, under
seed ``-``: README's example files through each subcommand that reads them
(``readme``), and ``extend`` errors, a ranks file that leaves out an
element and a missing file (``errors``), each with ``--json`` and without.
``golden.txt`` keeps one short digest per record, in a fixed order, beside
the record's name; ``tests/test_golden.py`` recomputes them.  After a
deliberate change of output, regenerate the file with::

    python tests/golden.py --write

and name the records that changed, and why, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.txt")
DECKS = (
    ("chart", 1), ("chart", 2), ("corpus", 1), ("corpus", 2), ("rank", 1), ("rank", 2),
    ("extend", 1), ("extend", 2),
)
MODES = ("over", "under")
DUALS = ([], ["--domain-dual"], ["--codomain-dual"], ["--domain-dual", "--codomain-dual"])

# README's File formats examples, and the two chains its mapping example reads
README_FILES = {
    "lattice.poset": "# a five element lattice\nelem bot\nbot < a\na < b\nb < top\nbot < c\nc < top\n",
    "f.map": "arity 2\nx x -> lo\nx y -> hi\ny x -> hi\ny y -> hi\n",
    "scores.txt": "p 0.9 1.0\nq 0.2 0.4\nr 0.1 0.8\n",
    "ranks.txt": "bot 0\na 1\nb 2\nc 1\ntop 3\n",
}
FIXED_FILES = {
    **README_FILES,
    "dom.poset": "x < y\n",
    "cod.poset": "lo < hi\n",
    # one fault each, in the order README's mapping errors come
    "malformed.map": "arity 2\nx x -> lo\nx y hi\n",
    "conflict.map": "arity 2\nx x -> lo\nx x -> hi\n",
    "unknown-domain.map": "arity 2\nx x -> lo\nx z -> hi\n",
    "unknown-value.map": "arity 2\nx x -> lo\nx y -> mid\n",
    "missing-tuple.map": "arity 2\nx x -> lo\nx y -> hi\ny x -> hi\n",
    "over-cap.map": "arity 20\nx x -> lo\n",
    # an earlier README ranks example, which leaves out c
    "partial-ranks.txt": "bot 0\na 1\nb 1\ntop 2\n",
}
FIXED = [
    *(("readme", [cmd, "lattice.poset", *flags]) for cmd, flags in (
        ("check", []), ("levels", []), ("levels", ["--dual", "--oracle"]),
        ("elcc", ["--oracle"]), ("equiv", []),
    )),
    ("readme", ["witness", "lattice.poset", "ranks.txt"]),
    *(("readme", ["extend", "dom.poset", "cod.poset", "f.map", "--mode", mode, *dual])
      for mode in MODES for dual in DUALS),
    *(("readme", ["rank", "scores.txt", "-k", k, *dual]) for k in "123" for dual in ([], ["--dual"])),
    *(("errors", ["extend", "dom.poset", "cod.poset", f"{fault}.map", "--mode", "under"])
      for fault in ("malformed", "conflict", "unknown-domain", "unknown-value", "missing-tuple", "over-cap")),
    ("errors", ["check", "missing.poset"]),
    ("errors", ["extend", "dom.poset", "cod.poset", "missing.map", "--mode", "over"]),
    ("errors", ["witness", "lattice.poset", "partial-ranks.txt"]),
]
HEADER = "# digest workload seed argv; regenerate with: python tests/golden.py --write"


def deck_builder():
    """``perfbench/workloads.build``; the decks come from the benchmark's own
    seeded stream, so a change to posetlin cannot change them."""
    path = str(ROOT / "perfbench")
    sys.path.insert(0, path)
    try:
        from workloads import build
    finally:
        sys.path.remove(path)
    return build


def argvs(request):
    """The command lines one deck request runs as, each with ``--json`` first."""
    if request["kind"] == "cli":
        yield request["argv"]
        yield [a for a in request["argv"] if a != "--json"]
        return
    dom, cod, table = request["files"]
    for mode in MODES:
        for dual in DUALS:
            argv = ["extend", dom, cod, table, "--mode", mode, *dual]
            yield argv + ["--json"]
            yield argv


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _records(main, directory, files, requests):
    """``(name, digest)`` of each ``(workload, seed, argv)`` request, run with
    ``files`` written to ``directory``, which the argv name them relative to."""
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for workload, seed, argv in requests:
            record = json.dumps([argv, *_run(main, argv)])
            digest = hashlib.sha256(record.encode()).hexdigest()[:16]
            yield f"{workload} {seed} {' '.join(argv)}", digest
    finally:
        os.chdir(cwd)


def records(directory):
    """``(name, digest)`` of every record, in order; request files go under ``directory``."""
    from posetlin.cli import main

    build, found = deck_builder(), []
    for workload, seed in DECKS:
        files, manifest = build(workload, seed)
        requests = ((workload, seed, argv) for r in manifest["deck"] for argv in argvs(r))
        found.extend(_records(main, Path(directory) / f"{workload}{seed}", files, requests))
    fixed = ((group, "-", argv + flag) for group, argv in FIXED for flag in (["--json"], []))
    found.extend(_records(main, Path(directory) / "fixed", FIXED_FILES, fixed))
    return found


def read():
    """``(name, digest)`` of every stored record, in order."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()[1:]
    return [(name, digest) for digest, name in (line.split(" ", 1) for line in lines)]


def write():
    with tempfile.TemporaryDirectory() as directory:
        found = records(directory)
    lines = [HEADER] + [f"{digest} {name}" for name, digest in found]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(found)} records to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    sys.path.insert(0, str(ROOT / "src"))
    write()
