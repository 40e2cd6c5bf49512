"""The library pipeline behind an ``extend`` request.

A caller extending a table checks its character, then extends it in the mode
README says preserves that character, and emits canonical JSON.  Names are
looked up on the ``posetlin`` package at call time, so traced wrappers
installed there are seen.

Run as a script, it answers one request in a fresh interpreter and prints
``[is_monotone, is_antitone, mode, json]``::

    python3 perfbench/pipeline.py DOMAIN CODOMAIN MAPPING primal|dual primal|dual
"""

import json
import sys

import posetlin


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def run(domain_path, codomain_path, mapping_path, domain_direction, codomain_direction):
    domain = posetlin.parse_poset(_read(domain_path))
    codomain = posetlin.parse_poset(_read(codomain_path))
    table = posetlin.parse_mapping(_read(mapping_path), domain, codomain)
    monotone = table.is_monotone()
    antitone = table.is_antitone()
    if monotone == antitone:
        raise ValueError("table is not strictly one of monotone and antitone")
    over_keeps = monotone == (domain_direction == posetlin.PRIMAL)
    mode = "over" if over_keeps else "under"
    extended = posetlin.extend(
        table,
        posetlin.compute_levels(domain, domain_direction),
        posetlin.compute_levels(codomain, codomain_direction),
        mode,
    )
    return monotone, antitone, mode, posetlin.emit_json(extended)


if __name__ == "__main__":
    print(json.dumps(run(*sys.argv[1:6])))
