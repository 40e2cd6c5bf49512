"""Command line front-end.

Exit codes: 0 on success; 1 on domain errors (cycles, missing bounds, size
caps, ...), on an input file that is missing, unreadable or not UTF-8, and
on a ``-k`` below 1; 2 on parse errors.
"""

import argparse
import functools
import sys
from itertools import chain, product

from .errors import OracleMismatchError, ParseError, PosetlinError
from .formats import (
    canonical_json,
    emit_json,
    parse_mapping,
    parse_poset,
    parse_ranks,
    parse_scores,
    rank_items,
)
from .levels import DUAL, PRIMAL, compute_levels, linearisations_equivalent, satisfies_elcc
from .mappings import MODES, extend, impossibility_witness
from .oracle import brute_levels, enumerate_maximal_chains


def _read(path):
    """Strict UTF-8, untranslated: every parser's ``splitlines()`` ends lines as text mode would."""
    with open(path, "rb") as handle:
        return handle.read().decode("utf-8")


def _emit(args, payload, lines):
    """Print ``payload`` as canonical JSON under ``--json``, else ``lines``, read only then."""
    print(canonical_json(payload) if args.json else "\n".join(lines))


def _cmd_check(args):
    p = parse_poset(_read(args.poset))
    strict_pairs, cover_pairs = p._pair_counts()
    info = {
        "elements": len(p),
        "strict_pairs": strict_pairs,
        "cover_pairs": cover_pairs,
        "linear": p.is_linear(),
        "lattice": p.is_lattice(),
        "elcc": satisfies_elcc(p) if len(p) else None,
    }
    _emit(args, info, (f"{key}: {value}" for key, value in info.items()))


def _cmd_levels(args):
    p = parse_poset(_read(args.poset))
    direction = DUAL if args.dual else PRIMAL
    lin = compute_levels(p, direction)
    if args.oracle:
        reference = brute_levels(p, direction).layer
        for x, got, want in zip(p.elements, lin.layer, reference):
            if got != want:
                raise OracleMismatchError(f"level of {x!r} is {got}, brute force gives {want}")
    if args.json:
        print(emit_json(lin))
    else:
        for index, cls in enumerate(lin.classes_ascending()):
            print(f"{index}: {' '.join(cls)}")


def _cmd_elcc(args):
    p = parse_poset(_read(args.poset))
    result = satisfies_elcc(p)
    payload = {"elcc": result}
    lines = ["true" if result else "false"]
    if args.oracle:
        lengths = sorted({len(c) for c in enumerate_maximal_chains(p)})
        if (len(lengths) == 1) != result:
            raise OracleMismatchError(f"ELCC {result} disagrees with chain lengths {lengths}")
        payload["chain_lengths"] = lengths
        lines.append(f"maximal chain lengths: {' '.join(map(str, lengths))}")
    _emit(args, payload, lines)


def _cmd_equiv(args):
    p = parse_poset(_read(args.poset))
    result = linearisations_equivalent(p)
    _emit(args, {"equivalent": result}, ["true" if result else "false"])


def _cmd_extend(args):
    domain = parse_poset(_read(args.domain_poset))
    codomain = parse_poset(_read(args.codomain_poset))
    table = parse_mapping(_read(args.mapping), domain, codomain)
    domain_lin = compute_levels(domain, DUAL if args.domain_dual else PRIMAL)
    codomain_lin = compute_levels(codomain, DUAL if args.codomain_dual else PRIMAL)
    cm = extend(table, domain_lin, codomain_lin, args.mode)
    if args.json:
        print(emit_json(cm))
    else:
        print(f"mode: {cm.mode}")
        domain_labels = [f"[{' '.join(c)}]" for c in domain_lin.classes_ascending()]
        codomain_labels = [f"[{' '.join(c)}]" for c in codomain_lin.classes_ascending()]
        # product walks the rank tuple's order; rows go out as made, never held whole
        keys = product(domain_labels, repeat=cm.arity)
        rows = zip(keys, map(codomain_labels.__getitem__, cm.ranks))
        sys.stdout.writelines(f"{' x '.join(key)} -> {value}\n" for key, value in rows)
        monotone, antitone = cm._report()
        print(f"monotone: {monotone}\nantitone: {antitone}")


def _cmd_witness(args):
    p = parse_poset(_read(args.poset))
    ranks = parse_ranks(_read(args.ranks), p)
    witness = impossibility_witness(p, ranks)
    payload = {
        "case": witness.case,
        "pair": witness.pair,
        "map": {x: witness.witness_map(x) for x in p.elements},
        "violation": witness.violation,
    }
    _emit(args, payload, chain(
        (f"case: {witness.case}", f"pair: {witness.pair[0]} {witness.pair[1]}"),
        (f"f({x}) = {y}" for x, y in payload["map"].items()),
        (f"violation: {witness.violation}",),
    ))


def _cmd_rank(args):
    items = parse_scores(_read(args.scores))
    ranking = rank_items(items, args.k, DUAL if args.dual else PRIMAL)
    if args.json:
        print(emit_json(ranking))
    else:
        for index, group in enumerate(ranking.groups, start=1):
            print(f"group {index}: {' '.join(group.items)}")


@functools.cache  # parsing leaves the parsers as they were, so one set serves every call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="posetlin",
        description="Linearise finite posets by levels, extend monotone mappings, rank interval scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=handler, command=name)  # as the root parser would set it
        cmd.add_argument("--json", action="store_true", help="emit canonical JSON")
        return cmd

    cmd = add("check", _cmd_check, "validate a poset file and print a summary")
    cmd.add_argument("poset")

    cmd = add("levels", _cmd_levels, "print the level classes, least class first")
    cmd.add_argument("poset")
    cmd.add_argument("--dual", action="store_true", help="strip minimal elements instead")
    cmd.add_argument(
        "--oracle", action="store_true", help="cross-check against the brute-force levels"
    )

    cmd = add("elcc", _cmd_elcc, "decide whether all maximal chains have equal length")
    cmd.add_argument("poset")
    cmd.add_argument(
        "--oracle", action="store_true", help="cross-check by enumerating maximal chains"
    )

    cmd = add("equiv", _cmd_equiv, "decide whether both linearisations coincide")
    cmd.add_argument("poset")

    cmd = add("extend", _cmd_extend, "extend a mapping table over linearisations")
    cmd.add_argument("domain_poset")
    cmd.add_argument("codomain_poset")
    cmd.add_argument("mapping")
    cmd.add_argument("--mode", choices=MODES, required=True)
    cmd.add_argument("--domain-dual", action="store_true")
    cmd.add_argument("--codomain-dual", action="store_true")

    cmd = add("witness", _cmd_witness, "build an impossibility witness for a rank function")
    cmd.add_argument("poset")
    cmd.add_argument("ranks")

    cmd = add("rank", _cmd_rank, "rank interval-scored items, best group first")
    cmd.add_argument("scores")
    cmd.add_argument("-k", type=int, required=True, help="minimum number of items to emit")
    cmd.add_argument("--dual", action="store_true")

    return parser, sub.choices


def main(argv=None):
    """Exit code of ``argv``; the root parser only reports what a command's own parser leaves."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None  # the root parser would hand it argv[1:]
    args, extra = (None, True) if command is None else command.parse_known_args(argv[1:])
    if extra:  # no command, an unknown one, or arguments left over: the root parser reports it
        args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ParseError, PosetlinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
