"""Answers computed without posetlin, and the checks that compare against them.

Orders are held as Python ``int`` bitsets indexed by declaration position.
Nothing here imports posetlin: the benchmark must never compare the program
with itself.  JSON payloads are rendered the way README.md specifies
(``separators=(",", ":")``, fixed key order).
"""

import json
from itertools import product


def dumps(payload):
    return json.dumps(payload, separators=(",", ":"))


def bits(mask):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Order:
    """A finite strict order closed from generating pairs, as int bitsets.

    ``up[i]`` holds the elements strictly above element ``i``; ``cover[i]``
    the elements covering it.  Raises ``ValueError`` on a cycle.
    """

    def __init__(self, names, pairs):
        self.names = list(names)
        self.index = {x: i for i, x in enumerate(self.names)}
        n = len(self.names)
        adj = [0] * n
        for x, y in pairs:
            adj[self.index[x]] |= 1 << self.index[y]
        indegree = [0] * n
        for i in range(n):
            for j in bits(adj[i]):
                indegree[j] += 1
        topo = [i for i in range(n) if indegree[i] == 0]
        for i in topo:
            for j in bits(adj[i]):
                indegree[j] -= 1
                if indegree[j] == 0:
                    topo.append(j)
        if len(topo) < n:
            raise ValueError("generating pairs contain a cycle")
        self.topo = topo
        up = [0] * n
        cover = [0] * n
        for i in reversed(topo):
            reach = 0
            through = 0
            for j in bits(adj[i]):
                reach |= (1 << j) | up[j]
                through |= up[j]
            up[i] = reach
            cover[i] = adj[i] & ~through
        self.up = up
        self.cover = cover
        self._down = None
        # longest cover walks: primal level counts steps up to a maximal
        # element, dual level counts steps up from a minimal one
        primal = [0] * n
        for i in reversed(topo):
            primal[i] = max((primal[j] + 1 for j in bits(cover[i])), default=0)
        dual = [0] * n
        for i in topo:
            for j in bits(cover[i]):
                dual[j] = max(dual[j], dual[i] + 1)
        self.primal = primal
        self.dual = dual
        self.height = 1 + max(primal, default=-1)

    def __len__(self):
        return len(self.names)

    @property
    def down(self):
        if self._down is None:
            down = [0] * len(self.names)
            for i, mask in enumerate(self.up):
                for j in bits(mask):
                    down[j] |= 1 << i
            self._down = down
        return self._down

    def leq(self, x, y):
        i, j = self.index[x], self.index[y]
        return i == j or bool(self.up[i] >> j & 1)

    def incomparable(self, x, y):
        return x != y and not self.leq(x, y) and not self.leq(y, x)

    def strict_pairs(self):
        return sum(mask.bit_count() for mask in self.up)

    def cover_pairs(self):
        return sum(mask.bit_count() for mask in self.cover)

    def rank(self, direction):
        """Position of each element's class in the ascending linear order."""
        if direction == "dual":
            return list(self.dual)
        return [self.height - 1 - level for level in self.primal]

    def classes(self, direction):
        """Classes least first, members in declaration order."""
        out = [[] for _ in range(self.height)]
        for i, r in enumerate(self.rank(direction)):
            out[r].append(self.names[i])
        return out

    def maximal(self):
        return [i for i, mask in enumerate(self.up) if not mask]

    def elcc(self):
        """All maximal chains equal in length: no maximal element is reached
        by a cover walk from a minimal one shorter than the height."""
        shortest = [1] * len(self.names)
        reached = [False] * len(self.names)
        for i in self.topo:
            for j in bits(self.cover[i]):
                step = shortest[i] + 1
                shortest[j] = step if not reached[j] else min(shortest[j], step)
                reached[j] = True
        return all(shortest[i] == self.height for i in self.maximal())

    def chain_lengths(self):
        """Sorted distinct element counts of the maximal chains."""
        lengths = [None] * len(self.names)
        for i in self.topo:
            if lengths[i] is None:
                lengths[i] = {1}
            for j in bits(self.cover[i]):
                grown = {length + 1 for length in lengths[i]}
                lengths[j] = grown if lengths[j] is None else lengths[j] | grown
        return sorted(set().union(*(lengths[i] for i in self.maximal())))

    def equivalent(self):
        return all(d == self.height - 1 - p for p, d in zip(self.primal, self.dual))

    def _has_least(self, members, strict_up):
        if not members:
            return False
        covered = 0
        for v in bits(members):
            covered |= strict_up[v]
        least = members & ~covered
        return least != 0 and least & (least - 1) == 0

    def is_lattice(self):
        n = len(self.names)
        if n <= 1:
            return True
        if len(self.maximal()) != 1 or sum(1 for d in self.down if not d) != 1:
            return False
        upc = [mask | 1 << i for i, mask in enumerate(self.up)]
        downc = [mask | 1 << i for i, mask in enumerate(self.down)]
        for i in range(n):
            for j in range(i + 1, n):
                if not self._has_least(upc[i] & upc[j], self.up):
                    return False
                if not self._has_least(downc[i] & downc[j], self.down):
                    return False
        return True

    def first_incomparable(self):
        for i, x in enumerate(self.names):
            for y in self.names[i + 1 :]:
                if self.incomparable(x, y):
                    return x, y
        return None


# -- expected stdout of the CLI subcommands, all with --json ----------------


def levels_json(order, direction):
    return dumps({"direction": direction, "classes": order.classes(direction)})


def check_json(order):
    n = len(order)
    strict = order.strict_pairs()
    return dumps(
        {
            "elements": n,
            "strict_pairs": strict,
            "cover_pairs": order.cover_pairs(),
            "linear": strict == n * (n - 1) // 2,
            "lattice": order.is_lattice(),
            "elcc": order.elcc() if n else None,
        }
    )


def elcc_json(order, oracle=False):
    if not oracle:
        return dumps({"elcc": order.elcc()})
    return dumps({"elcc": order.elcc(), "chain_lengths": order.chain_lengths()})


def equiv_json(order):
    return dumps({"equivalent": order.equivalent()})


def chain_answers(names_in_chain_order, declared):
    """Closed forms for a chain: one element per class, everything comparable."""
    n = len(declared)
    classes = [[x] for x in names_in_chain_order]
    return {
        "levels": dumps({"direction": "primal", "classes": classes}),
        "levels --dual": dumps({"direction": "dual", "classes": classes}),
        "check": dumps(
            {
                "elements": n,
                "strict_pairs": n * (n - 1) // 2,
                "cover_pairs": n - 1,
                "linear": True,
                "lattice": True,
                "elcc": True,
            }
        ),
        "elcc": dumps({"elcc": True}),
        "equiv": dumps({"equivalent": True}),
    }


def grid_answers(rows, cols, declared):
    """Closed forms for the product of an r-chain and a c-chain.

    Element ``g{i}_{j}`` sits in class ``i + j`` in both directions; the
    lattice is graded, so both decompositions agree and the ELCC holds.
    """
    position = {x: k for k, x in enumerate(declared)}
    classes = [[] for _ in range(rows + cols - 1)]
    for i in range(rows):
        for j in range(cols):
            classes[i + j].append(f"g{i}_{j}")
    for cls in classes:
        cls.sort(key=position.__getitem__)
    strict = (rows * (rows + 1) // 2) * (cols * (cols + 1) // 2) - rows * cols
    return {
        "levels": dumps({"direction": "primal", "classes": classes}),
        "levels --dual": dumps({"direction": "dual", "classes": classes}),
        "check": dumps(
            {
                "elements": rows * cols,
                "strict_pairs": strict,
                "cover_pairs": rows * (cols - 1) + cols * (rows - 1),
                "linear": rows == 1 or cols == 1,
                "lattice": True,
                "elcc": True,
            }
        ),
        "elcc": dumps({"elcc": True}),
        "equiv": dumps({"equivalent": True}),
    }


# -- rank --------------------------------------------------------------------


def ranking_json(items, k, direction):
    """Expected ``rank -k K --json`` output by O(m^2) longest-chain layering.

    ``items`` holds ``(name, lo, hi, lo_text, hi_text)`` with ``lo`` and
    ``hi`` integers on one common scale.  [a, b] lies below [c, d] when
    a <= c and b <= d.  The primal level of a value is its longest strict
    chain upwards, the dual level its longest chain downwards; groups come
    out highest class first until ``k`` items are out.
    """
    first = {}
    for name, lo, hi, lo_text, hi_text in items:
        first.setdefault((lo, hi), (lo_text, hi_text))
    values = list(first)
    level = {}
    if direction == "primal":
        order = sorted(values, reverse=True)
        beats = lambda w, v: w[0] >= v[0] and w[1] >= v[1]  # noqa: E731
    else:
        order = sorted(values)
        beats = lambda w, v: w[0] <= v[0] and w[1] <= v[1]  # noqa: E731
    done = []
    for v in order:
        level[v] = 1 + max((level[w] for w in done if beats(w, v)), default=-1)
        done.append(v)
    top = max(level.values())
    # primal emits level 0 (the maximal values) first, dual its top level
    sequence = range(top + 1) if direction == "primal" else range(top, -1, -1)
    groups = []
    emitted = 0
    for lev in sequence:
        members = [v for v in values if level[v] == lev]
        member_set = set(members)
        group_items = [name for name, lo, hi, _, _ in items if (lo, hi) in member_set]
        groups.append(
            {"items": group_items, "intervals": [list(first[v]) for v in members]}
        )
        emitted += len(group_items)
        if emitted >= k:
            break
    return dumps({"direction": direction, "k": k, "groups": groups})


# -- extend ------------------------------------------------------------------


def preserved_flag(character, mode, domain_direction):
    """README's preservation rule: the flag the extension must keep true.

    Over a primal domain decomposition "over" keeps monotone tables monotone
    and "under" keeps antitone tables antitone; over a dual one the modes
    swap roles.
    """
    keeps_monotone = (mode == "over") == (domain_direction == "primal")
    if character == "monotone" and keeps_monotone:
        return "monotone"
    if character == "antitone" and not keeps_monotone:
        return "antitone"
    return None


def preserving_mode(character, domain_direction):
    over_keeps = "monotone" if domain_direction == "primal" else "antitone"
    return "over" if character == over_keeps else "under"


def extension_json(dom, cod, arity, table, mode, dom_dir, cod_dir):
    """Expected canonical JSON of ``extend`` on the given table.

    Each tuple of domain classes keeps the greatest ("over") or least
    ("under") codomain rank of the table over the class product.  The flags
    are decided along unit steps of the product of chains of class ranks.
    """
    dom_rank = dom.rank(dom_dir)
    cod_rank = cod.rank(cod_dir)
    width = dom.height
    members = [[] for _ in range(width)]
    for i, r in enumerate(dom_rank):
        members[r].append(dom.names[i])
    pick = max if mode == "over" else min
    values = {}
    for ranks in product(range(width), repeat=arity):
        values[ranks] = pick(
            cod_rank[cod.index[table[xs]]]
            for xs in product(*(members[r] for r in ranks))
        )
    monotone = antitone = True
    for ranks, value in values.items():
        for axis in range(arity):
            if ranks[axis] + 1 < width:
                step = ranks[:axis] + (ranks[axis] + 1,) + ranks[axis + 1 :]
                monotone &= value <= values[step]
                antitone &= value >= values[step]
    return dumps(
        {
            "mode": mode,
            "arity": arity,
            "domain": {"direction": dom_dir, "classes": dom.classes(dom_dir)},
            "codomain": {"direction": cod_dir, "classes": cod.classes(cod_dir)},
            "entries": [[list(ranks), value] for ranks, value in values.items()],
            "monotone": monotone,
            "antitone": antitone,
        }
    )


# -- checks --------------------------------------------------------------------


def check_rejected(request, code, out):
    return code == request["code"] and out == ""


def check_exact(request, code, out):
    return code == 0 and out == request["expect"] + "\n"


def check_extend(request, result):
    """``result`` is (is_monotone, is_antitone, mode, emitted json)."""
    monotone, antitone, mode, out = result
    character = request["character"]
    if (monotone, antitone) != (character == "monotone", character == "antitone"):
        return False
    if mode != request["mode"] or out != request["expect"]:
        return False
    flag = preserved_flag(character, mode, request["domain_direction"])
    return flag is not None and json.loads(out)[flag] is True


def check_witness(request, code, out):
    """Recheck a witness against the benchmark's own order and the ranks."""
    if code != 0:
        return False
    spec = request["expect"]
    order = Order(spec["elements"], spec["pairs"])
    ranks = spec["ranks"]
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    if list(payload) != ["case", "pair", "map", "violation"]:
        return False
    a, b = payload["pair"]
    if {a, b} != set(order.first_incomparable()) or ranks[a] > ranks[b]:
        return False
    image = payload["map"]
    if list(image) != order.names or any(v not in order.index for v in image.values()):
        return False
    for i, x in enumerate(order.names):
        for j in bits(order.up[i]):
            if not order.leq(image[x], image[order.names[j]]):
                return False
    fa, fb = ranks[image[a]], ranks[image[b]]
    if payload["case"] == "collapsed":
        held = ranks[a] == ranks[b] and fa != fb
    elif payload["case"] == "ordered":
        held = ranks[a] < ranks[b] and fa > fb
    else:
        return False
    return held and isinstance(payload["violation"], str) and payload["violation"] != ""


CHECKS = {
    "exact": check_exact,
    "rejected": check_rejected,
    "witness": check_witness,
}
