"""Self-tests of the benchmark's own generator and checkers.

    python3 perfbench/selftest.py

Each checker must reject a corrupted output, the bitset reference must agree
with the closed forms it stands in for, and one seed must yield
byte-identical inputs twice.  Needs no posetlin; exits non-zero on the first
failure.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import (  # noqa: E402
    CHECKS,
    Order,
    chain_answers,
    check_extend,
    check_json,
    dumps,
    elcc_json,
    equiv_json,
    grid_answers,
    levels_json,
)
from workloads import WORKLOADS, build, grid  # noqa: E402


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def first(deck, predicate):
    return next(request for request in deck if predicate(request))


def test_reference_matches_closed_forms():
    for rows, cols in ((1, 5), (3, 4), (6, 8)):
        names, pairs = grid(rows, cols)
        declared = list(reversed(names))
        order = Order(declared, pairs)
        closed = grid_answers(rows, cols, declared)
        computed = {
            "levels": levels_json(order, "primal"),
            "levels --dual": levels_json(order, "dual"),
            "check": check_json(order),
            "elcc": elcc_json(order),
            "equiv": equiv_json(order),
        }
        expect(computed == closed, f"bitset reference disagrees on the {rows}x{cols} grid")
    chain = [f"c{i}" for i in range(30)]
    pairs = list(zip(chain, chain[1:])) + [(chain[0], chain[-1]), (chain[3], chain[9])]
    order = Order(chain[::-1], pairs)
    closed = chain_answers(chain, chain[::-1])
    expect(levels_json(order, "dual") == closed["levels --dual"], "chain levels")
    expect(check_json(order) == closed["check"], "chain check")
    # a poset with a short maximal chain: covers u<w, w<q, p<q, q<r, p<v, v<z, z<r
    pairs = [("u", "w"), ("w", "q"), ("p", "q"), ("q", "r"), ("p", "v"), ("v", "z"), ("z", "r")]
    order = Order(["u", "w", "q", "p", "r", "v", "z"], pairs)
    expect(not order.elcc() and order.equivalent(), "short maximal chain")
    expect(order.chain_lengths() == [3, 4], "chain lengths")


def test_exact_check_rejects_swapped_classes():
    _, manifest = build("chart", 7)
    request = first(manifest["deck"], lambda r: r["argv"][0] == "levels" and r["check"] == "exact")
    good = request["expect"] + "\n"
    expect(CHECKS["exact"](request, 0, good), "correct levels output refused")
    payload = json.loads(good)
    payload["classes"][0], payload["classes"][1] = payload["classes"][1], payload["classes"][0]
    expect(not CHECKS["exact"](request, 0, dumps(payload) + "\n"), "swapped classes accepted")
    expect(not CHECKS["exact"](request, 1, good), "wrong exit code accepted")


def test_rank_check_rejects_dropped_group():
    _, manifest = build("rank", 7)
    request = first(manifest["deck"], lambda r: r["check"] == "exact" and '"groups":[{' in r["expect"])
    payload = json.loads(request["expect"])
    payload["groups"] = payload["groups"][:-1]
    expect(not CHECKS["exact"](request, 0, dumps(payload) + "\n"), "dropped group accepted")


def test_rejected_check():
    _, manifest = build("corpus", 7)
    request = first(manifest["deck"], lambda r: r["check"] == "rejected")
    expect(CHECKS["rejected"](request, request["code"], ""), "proper rejection refused")
    expect(not CHECKS["rejected"](request, 0, ""), "accepted invalid input passed")
    expect(not CHECKS["rejected"](request, 3 - request["code"], ""), "wrong exit code passed")
    expect(not CHECKS["rejected"](request, request["code"], "x\n"), "stdout on rejection passed")


def test_extend_check_rejects_flipped_flag():
    _, manifest = build("extend", 7)
    request = manifest["deck"][0]
    monotone = request["character"] == "monotone"
    good = (monotone, not monotone, request["mode"], request["expect"])
    expect(check_extend(request, good), "correct extension refused")
    payload = json.loads(request["expect"])
    flag = "monotone" if monotone else "antitone"
    payload[flag] = not payload[flag]
    expect(not check_extend(request, good[:3] + (dumps(payload),)), "flipped flag accepted")
    expect(not check_extend(request, (not monotone,) + good[1:]), "wrong table character accepted")


def test_witness_check_rejects_broken_map():
    _, manifest = build("corpus", 7)
    request = first(manifest["deck"], lambda r: r["check"] == "witness")
    spec = request["expect"]
    order = Order(spec["elements"], spec["pairs"])
    ranks = spec["ranks"]
    a, b = order.first_incomparable()
    if ranks[a] > ranks[b]:
        a, b = b, a
    bottom = next(x for i, x in enumerate(order.names) if not order.down[i])
    # the map of the "ordered" case: f(x) = sup of bottom with b above a, a above b
    def join(x, y):
        uppers = [z for z in order.names if order.leq(x, z) and order.leq(y, z)]
        return next(u for u in uppers if all(order.leq(u, v) for v in uppers))
    image = {}
    for x in order.names:
        value = bottom
        if order.leq(a, x):
            value = join(value, b)
        if order.leq(b, x):
            value = join(value, a)
        image[x] = value
    if ranks[a] == ranks[b]:
        case = "collapsed"
        image = {x: join(x, a) for x in order.names}
    else:
        case = "ordered"
    good = {"case": case, "pair": [a, b], "map": image, "violation": "v"}
    expect(CHECKS["witness"](request, 0, dumps(good) + "\n"), "correct witness refused")
    top = next(x for i, x in enumerate(order.names) if not order.up[i])
    broken = dict(good, map=dict(image, **{top: bottom}))
    expect(not CHECKS["witness"](request, 0, dumps(broken) + "\n"), "non-monotone map accepted")
    other = "ordered" if case == "collapsed" else "collapsed"
    expect(not CHECKS["witness"](request, 0, dumps(dict(good, case=other)) + "\n"), "wrong case accepted")


def test_same_seed_same_bytes():
    for workload in WORKLOADS:
        files_a, manifest_a = build(workload, 11)
        files_b, manifest_b = build(workload, 11)
        expect(files_a == files_b, f"{workload}: inputs differ between two builds")
        expect(json.dumps(manifest_a) == json.dumps(manifest_b), f"{workload}: manifests differ")
        files_c, _ = build(workload, 12)
        expect(files_a != files_c, f"{workload}: seed does not change the inputs")


def main():
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")


if __name__ == "__main__":
    main()
