"""The benchmark's traced mode still wraps and counts what the library offers.

``perfbench/tracing.py`` names posetlin functions by string and its counters
call order queries on the posets it sees, so a rename in the library would
break ``--trace 1`` without failing any other test.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_requests_are_answered_and_counted(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    from reference import Order, check_json
    from serve import Server
    from tracing import Tracer
    from workloads import Builder, extend_request, poset_text, tiny_lattice

    b = Builder("extend", 1)
    b.deck.append(extend_request(b, 8, 2, 4))
    declared, pairs = tiny_lattice()
    path = b.file("lattice", poset_text(declared, pairs))
    b.cli(["check", path, "--json"], check_json(Order(declared, pairs)))
    for name, text in b.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    server = Server(b.deck)
    tracer = Tracer()
    try:
        tracer.install()
        for index in range(len(b.deck)):
            server.one(index)
    finally:
        tracer.uninstall()
    assert (server.attempted, server.failed) == (2, 0), server.failures
    metrics, _ = tracer.metrics()
    assert metrics["mappings.table_entries"] > 0
    assert metrics["poset.cover_pairs"] > 0
    assert metrics["mappings.table_check.self_ms"] > 0


def test_a_traced_poset_file_request_counts_its_poset(tmp_path, monkeypatch):
    """Loading a poset file must go through the module-level ``build_poset``,
    which the tracer rebinds: a load path that bypassed it would read zero
    here and blank the per-layer poset counters of every traced run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    from reference import Order, levels_json
    from serve import Server
    from tracing import Tracer
    from workloads import Builder, poset_text, tiny_lattice

    b = Builder("chart", 1)
    declared, pairs = tiny_lattice()
    path = b.file("lattice", poset_text(declared, pairs))
    (tmp_path / path).write_text(b.files[path], encoding="utf-8")
    b.cli(["levels", path, "--json"], levels_json(Order(declared, pairs), "primal"))

    server = Server(b.deck)
    tracer = Tracer()
    try:
        tracer.install()
        server.one(0)
    finally:
        tracer.uninstall()
    assert (server.attempted, server.failed) == (1, 0), server.failures
    metrics, _ = tracer.metrics()
    assert metrics["poset.build_poset.calls"] > 0
    assert metrics["poset.elements"] > 0
    assert metrics["poset.cover_pairs"] > 0


def test_a_traced_rank_request_counts_its_items(tmp_path, monkeypatch):
    """The tracer counts ``rank``'s items and distinct intervals from the
    ``ScoredItem`` list that ``rank_items`` is given: a change to either
    would read zero here instead of blanking those counters in traced runs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    from reference import ranking_json
    from serve import Server
    from tracing import Tracer
    from workloads import Builder, rank_argv, scored_items, scores_text

    b = Builder("rank", 1)
    items = scored_items(b.rng, 50)
    path = b.file("scores", scores_text(items))
    (tmp_path / path).write_text(b.files[path], encoding="utf-8")
    b.cli(rank_argv(path, 5, "primal"), ranking_json(items, 5, "primal"))

    server = Server(b.deck)
    tracer = Tracer()
    try:
        tracer.install()
        server.one(0)
    finally:
        tracer.uninstall()
    assert (server.attempted, server.failed) == (1, 0), server.failures
    metrics, _ = tracer.metrics()
    assert metrics["formats.scored_items"] > 0
    assert metrics["formats.distinct_intervals"] > 0
    assert metrics["formats.rank_items.self_ms"] > 0
