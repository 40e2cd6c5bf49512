"""Golden records of the command line's bytes.

A record is ``(argv, exit code, stdout, stderr)`` of one ``posetlin`` request
from the benchmark's decks (``perfbench/workloads.py``) at seeds 1 and 2, run
in process.  A ``chart``, ``corpus`` or ``rank`` request runs as built
(``--json``) and again with ``--json`` dropped.  An ``extend`` request, which
the benchmark serves through the library, runs as ``extend DOM COD MAP --mode
M`` for both modes and all four ``--domain-dual``/``--codomain-dual``
settings, each with ``--json`` and without.  ``golden.txt`` keeps one short
digest per record, in a fixed order, beside the record's name;
``tests/test_golden.py`` recomputes them.  After a deliberate change of
output, regenerate the file with::

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
        for dual in ([], ["--domain-dual"], ["--codomain-dual"], ["--domain-dual", "--codomain-dual"]):
            argv = ["extend", dom, cod, table, "--mode", mode, *dual]
            yield argv + ["--json"]
            yield argv


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def records(directory):
    """``(name, digest)`` of every record, in order; deck files go under ``directory``."""
    from posetlin.cli import main

    build, found, cwd = deck_builder(), [], os.getcwd()
    for workload, seed in DECKS:
        files, manifest = build(workload, seed)
        deck_dir = Path(directory) / f"{workload}{seed}"
        deck_dir.mkdir()
        for name, text in files.items():
            (deck_dir / name).write_text(text, encoding="utf-8")
        os.chdir(deck_dir)  # the argv name the files relative to their directory
        try:
            for request in manifest["deck"]:
                for argv in argvs(request):
                    record = json.dumps([argv, *_run(main, argv)])
                    digest = hashlib.sha256(record.encode()).hexdigest()[:16]
                    found.append((f"{workload} {seed} {' '.join(argv)}", digest))
        finally:
            os.chdir(cwd)
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
