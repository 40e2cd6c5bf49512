"""Seeded inputs for the four workloads, with their expected answers.

Inputs come from the benchmark's own splitmix64 stream (README "Reproducible
randomness"), never from ``posetlin.random_poset``, so a change to posetlin
cannot change them.  ``build(workload, seed)`` returns the files to write and
a manifest: the deck of requests one pass runs, each with the answer
``reference`` computed for it, and one trivial request for set-up timing.
Paths in the manifest are relative to the directory the files go to, so the
same seed yields byte-identical files and manifest.
"""

from itertools import product

from reference import (
    Order,
    chain_answers,
    check_json,
    elcc_json,
    equiv_json,
    extension_json,
    grid_answers,
    levels_json,
    preserving_mode,
    ranking_json,
)

MASK = (1 << 64) - 1
INVALID_SHARE = 20  # about one request in this many must be rejected


class SplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def chance(self, probability):
        return self.next() < int(probability * (1 << 64))

    def choice(self, options):
        return options[self.below(len(options))]

    def shuffle(self, xs):
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs


def poset_text(declared, pairs):
    lines = ["# generated by perfbench"]
    lines += [f"elem {x}" for x in declared]
    lines += [f"{x} < {y}" for x, y in pairs]
    return "\n".join(lines) + "\n"


def random_dag(rng, n, out_edges, prefix="v"):
    """``out_edges`` forward edges per node to uniform later nodes of a
    random permutation; elements are declared in name order."""
    names = [f"{prefix}{i}" for i in range(n)]
    perm = rng.shuffle(list(range(n)))
    pairs = []
    for pos in range(n - 1):
        for _ in range(out_edges):
            target = pos + 1 + rng.below(n - pos - 1)
            pairs.append((names[perm[pos]], names[perm[target]]))
    return names, pairs


def recipe_dag(rng, n, probability, prefix="n"):
    """README recipe: shuffle, then admit each forward pair with a chance."""
    names = [f"{prefix}{i}" for i in range(n)]
    perm = rng.shuffle(list(range(n)))
    pairs = [
        (names[perm[i]], names[perm[j]])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.chance(probability)
    ]
    return names, pairs


def grid(rows, cols):
    names = [f"g{i}_{j}" for i in range(rows) for j in range(cols)]
    pairs = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(rows - 1) for j in range(cols)]
    pairs += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(rows) for j in range(cols - 1)]
    return names, pairs


def invalid_poset(rng, case):
    """A poset file that must be rejected, with the exit code it must get."""
    names, pairs = random_dag(rng, 30, 2, prefix="w")
    lines = poset_text(names, pairs).splitlines()
    at = 1 + rng.below(len(lines) - 1)
    if case == "cycle":
        x, y = pairs[rng.below(len(pairs))]
        lines.insert(at, f"{y} < {x}")
        return "\n".join(lines) + "\n", 1
    if case == "duplicate":
        lines.insert(at, f"elem {names[rng.below(len(names))]}")
        return "\n".join(lines) + "\n", 1
    lines.insert(at, rng.choice(["w1 < w2 < w3", "elem", "w4 > w5", "w6 <"]))
    return "\n".join(lines) + "\n", 2


class Builder:
    """Collects the files and the deck of one workload."""

    def __init__(self, workload, seed):
        # the workload name is folded in so workloads draw distinct streams
        salt = sum((i + 1) * ord(ch) for i, ch in enumerate(workload))
        self.rng = SplitMix64(seed * 1_000_003 + salt)
        self.files = {}
        self.deck = []

    def file(self, stem, text):
        name = f"{stem}{len(self.files)}.txt"
        self.files[name] = text
        return name

    def cli(self, argv, expect, check="exact"):
        self.deck.append({"kind": "cli", "argv": argv, "check": check, "code": 0, "expect": expect})

    def rejected(self, argv, code):
        self.deck.append({"kind": "cli", "argv": argv, "check": "rejected", "code": code, "expect": ""})

    def invalid_share(self):
        """How many rejected requests keep them near one in INVALID_SHARE."""
        return max(1, len(self.deck) // (INVALID_SHARE - 1))

    def invalid_posets(self, commands, count, cases=("cycle", "duplicate", "malformed")):
        for k in range(count):
            text, code = invalid_poset(self.rng, cases[k % len(cases)])
            command = self.rng.choice(commands)
            self.rejected(command[:1] + [self.file("bad", text)] + command[1:], code)

    def manifest(self, workload, seed, setup):
        self.rng.shuffle(self.deck)
        return {"workload": workload, "seed": seed, "deck": self.deck, "setup": setup}


POSET_COMMANDS = {
    "check": ["check", "--json"],
    "levels": ["levels", "--json"],
    "levels --dual": ["levels", "--dual", "--json"],
    "elcc": ["elcc", "--json"],
    "equiv": ["equiv", "--json"],
}


def tiny_lattice():
    declared = ["bot", "a", "b", "top"]
    pairs = [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
    return declared, pairs


# -- chart -------------------------------------------------------------------

# (elements, copies per pass); each copy gets three of the five commands, in
# rotation, so that more copies average out how much one DAG's closure weighs
CHART_DAGS = ((100, 2), (200, 8), (400, 3))
DAG_COMMANDS = 3
CHART_CHAIN = 400
CHART_CHAINS = 3
# each grid gets `check` and two more commands in rotation
CHART_GRIDS = ((6, 6), (7, 7), (8, 8), (6, 8))
GRID_COMMANDS = 3


def build_chart(seed):
    b = Builder("chart", seed)

    def requests(path, answers):
        for command, answer in answers.items():
            argv = POSET_COMMANDS[command]
            b.cli(argv[:1] + [path] + argv[1:], answer)

    commands = list(POSET_COMMANDS)
    for n, copies in CHART_DAGS:
        for copy in range(copies):
            names, pairs = random_dag(b.rng, n, 3)
            order = Order(names, pairs)
            answer = {
                "check": check_json(order),
                "levels": levels_json(order, "primal"),
                "levels --dual": levels_json(order, "dual"),
                "elcc": elcc_json(order),
                "equiv": equiv_json(order),
            }
            chosen = [commands[(copy + i) % len(commands)] for i in range(DAG_COMMANDS)]
            requests(b.file("dag", poset_text(names, pairs)), {c: answer[c] for c in chosen})

    for _ in range(CHART_CHAINS):
        chain = [f"c{i}" for i in range(CHART_CHAIN)]
        pairs = list(zip(chain, chain[1:]))
        for _ in range(CHART_CHAIN // 4):  # redundant pairs the reduction must drop
            i = b.rng.below(CHART_CHAIN - 2)
            pairs.append((chain[i], chain[i + 2 + b.rng.below(CHART_CHAIN - i - 2)]))
        declared = b.rng.shuffle(list(chain))
        answers = chain_answers(chain, declared)
        # is_lattice on a long chain is quartic, so chains skip `check`
        del answers["check"]
        text = poset_text(declared, b.rng.shuffle(pairs))
        requests(b.file("chain", text), answers)

    for copy, (rows, cols) in enumerate(CHART_GRIDS):
        names, pairs = grid(rows, cols)
        declared = b.rng.shuffle(names)
        text = poset_text(declared, b.rng.shuffle(pairs))
        answer = grid_answers(rows, cols, declared)
        chosen = ["check"] + [commands[1 + (copy + i) % 4] for i in range(GRID_COMMANDS - 1)]
        requests(b.file("grid", text), {c: answer[c] for c in chosen})

    b.invalid_posets(list(POSET_COMMANDS.values()), b.invalid_share())
    declared, pairs = tiny_lattice()
    setup = {
        "argv": ["check", b.file("tiny", poset_text(declared, pairs)), "--json"],
        "expect": check_json(Order(declared, pairs)),
    }
    return b.files, b.manifest("chart", seed, setup)


# -- extend ------------------------------------------------------------------

# (domain size, arity, domain height, copies per pass); entries = size ** arity
# and the extension has height ** arity entries.  Height 10 on 12 elements is
# the tall, chain-like domain.
EXTEND_SHAPES = (
    (8, 2, 4, 5),
    (4, 3, 2, 5),
    (10, 2, 4, 6),
    (12, 2, 10, 10),
    (6, 3, 3, 9),
    (7, 3, 3, 7),
    (8, 3, 4, 1),
    (10, 3, 4, 1),
)


def extend_domain(rng, size, height):
    """A random poset of exactly ``height`` levels: every element above the
    bottom layer gets a lower cover in the layer just below, plus sometimes
    one more edge from any lower layer."""
    names = [f"d{i}" for i in range(size)]
    layers = [names[i::height] for i in range(height)]
    pairs = []
    for level in range(1, height):
        for x in layers[level]:
            pairs.append((rng.choice(layers[level - 1]), x))
            if rng.chance(0.5):
                pairs.append((rng.choice(layers[rng.below(level)]), x))
    return rng.shuffle(names), pairs


def extend_codomain(rng):
    """A small poset holding a chain ``k0 < k1 < ... < kL`` with L >= 2."""
    length = 3 + rng.below(3)
    spine = [f"k{i}" for i in range(length)]
    extra, pairs = recipe_dag(rng, 2 + rng.below(5), 0.3, prefix="e")
    pairs += list(zip(spine, spine[1:]))
    for x in extra:  # extras only ever sit below the chain, so no cycle forms
        if rng.chance(0.6):
            pairs.append((x, rng.choice(spine[1:])))
    return rng.shuffle(spine + extra), pairs, spine


def mapping_table(rng, dom, arity, spine, character):
    """A table monotone or antitone by construction and never constant:
    the sum of the arguments' dual levels, cut at sorted random points,
    indexes the codomain chain (reversed for antitone tables)."""
    top = len(spine) - 1
    largest = arity * (dom.height - 1)
    cuts = sorted(1 + rng.below(largest) for _ in range(top))
    level = dict(zip(dom.names, dom.dual))
    table = {}
    for xs in product(dom.names, repeat=arity):
        step = sum(1 for c in cuts if c <= sum(level[x] for x in xs))
        table[xs] = spine[step if character == "monotone" else top - step]
    return table


def mapping_text(rng, arity, table):
    rows = [f"{' '.join(xs)} -> {y}" for xs, y in table.items()]
    return f"arity {arity}\n" + "\n".join(rng.shuffle(rows)) + "\n"


def extend_request(b, size, arity, height):
    rng = b.rng
    dom_names, dom_pairs = extend_domain(rng, size, height)
    cod_names, cod_pairs, spine = extend_codomain(rng)
    dom = Order(dom_names, dom_pairs)
    cod = Order(cod_names, cod_pairs)
    character = rng.choice(["monotone", "antitone"])
    dom_dir = rng.choice(["primal", "dual"])
    cod_dir = rng.choice(["primal", "dual"])
    mode = preserving_mode(character, dom_dir)
    table = mapping_table(rng, dom, arity, spine, character)
    return {
        "kind": "extend",
        "files": [
            b.file("dom", poset_text(dom_names, dom_pairs)),
            b.file("cod", poset_text(cod_names, cod_pairs)),
            b.file("map", mapping_text(rng, arity, table)),
        ],
        "domain_direction": dom_dir,
        "codomain_direction": cod_dir,
        "character": character,
        "mode": mode,
        "check": "extend",
        "expect": extension_json(dom, cod, arity, table, mode, dom_dir, cod_dir),
    }


def build_extend(seed):
    b = Builder("extend", seed)
    for size, arity, height, copies in EXTEND_SHAPES:
        for _ in range(copies):
            b.deck.append(extend_request(b, size, arity, height))
    setup = extend_request(b, 2, 1, 2)
    return b.files, b.manifest("extend", seed, setup)


# -- rank --------------------------------------------------------------------

RANK_SHAPES = ((50, 8), (100, 12), (200, 4), (400, 4))  # (items, copies per pass)
SCALE = 1000


def decimal(value, short):
    text = f"{value // SCALE}.{value % SCALE:03d}"
    if short:
        text = text.rstrip("0")
        text += "0" if text.endswith(".") else ""
    return text


def scored_items(rng, m):
    items = []
    for i in range(m):
        if items and rng.chance(0.1):
            _, lo, hi, _, _ = items[rng.below(len(items))]
        else:
            lo = rng.below(SCALE + 1)
            hi = min(SCALE, lo + rng.below(300))
        short = rng.chance(0.3)
        items.append((f"item{i}", lo, hi, decimal(lo, short), decimal(hi, short)))
    return items


def scores_text(items):
    return "".join(f"{name} {lo} {hi}\n" for name, _, _, lo, hi in items)


def rank_argv(path, k, direction):
    argv = ["rank", path, "-k", str(k), "--json"]
    return argv + ["--dual"] if direction == "dual" else argv


def build_rank(seed):
    b = Builder("rank", seed)
    for m, copies in RANK_SHAPES:
        for _ in range(copies):
            items = scored_items(b.rng, m)
            k = b.rng.choice([1, 3, m // 10, m // 2, m + 5])
            direction = b.rng.choice(["primal", "dual"])
            path = b.file("scores", scores_text(items))
            b.cli(rank_argv(path, k, direction), ranking_json(items, k, direction))
    for _ in range(b.invalid_share()):
        lines = scores_text(scored_items(b.rng, 50)).splitlines()
        bad = b.rng.choice(["bad 0.9 0.1", "bad 0.5", "bad x 0.3"])
        lines.insert(b.rng.below(len(lines)), bad)
        b.rejected(rank_argv(b.file("bad", "\n".join(lines) + "\n"), 5, "primal"), 2)
    items = scored_items(b.rng, 3)
    setup = {
        "argv": rank_argv(b.file("tiny", scores_text(items)), 1, "primal"),
        "expect": ranking_json(items, 1, "primal"),
    }
    return b.files, b.manifest("rank", seed, setup)


# -- corpus ------------------------------------------------------------------

CORPUS_POSETS = 40
CORPUS_LATTICES = 20


def small_lattice(rng):
    family = rng.below(3)
    if family == 0:
        rows = 2 + rng.below(2)
        cols = 2 + rng.below(12 // rows - 1)
        return grid(rows, cols)
    if family == 1:
        atoms = [f"a{i}" for i in range(2 + rng.below(4))]
        return ["bot", *atoms, "top"], [("bot", a) for a in atoms] + [(a, "top") for a in atoms]
    return ["bot", "a", "b", "c", "top"], [
        ("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top"),
    ]


def ranks_for(rng, order):
    """Strictly order-preserving ranks: heights, or a random linear extension."""
    if rng.chance(0.5):
        return dict(zip(order.names, order.dual))
    remaining = set(range(len(order)))
    position = {}
    while remaining:
        ready = sorted(i for i in remaining if not order.down[i] & sum(1 << j for j in remaining))
        i = rng.choice(ready)
        position[order.names[i]] = len(position)
        remaining.remove(i)
    return position


def build_corpus(seed):
    b = Builder("corpus", seed)
    commands = [["levels", "--oracle", "--json"], ["levels", "--dual", "--oracle", "--json"], ["elcc", "--oracle", "--json"]]
    for _ in range(CORPUS_POSETS):
        n = 3 + b.rng.below(10)
        names, pairs = recipe_dag(b.rng, n, b.rng.choice([0.15, 0.3, 0.45]))
        order = Order(names, pairs)
        path = b.file("small", poset_text(names, pairs))
        answers = (
            levels_json(order, "primal"),
            levels_json(order, "dual"),
            elcc_json(order, oracle=True),
        )
        for argv, answer in zip(commands, answers):
            b.cli(argv[:1] + [path] + argv[1:], answer)
    lattices = []
    for _ in range(CORPUS_LATTICES):
        names, pairs = small_lattice(b.rng)
        declared = b.rng.shuffle(list(names))
        order = Order(declared, pairs)
        ranks = ranks_for(b.rng, order)
        path = b.file("lattice", poset_text(declared, b.rng.shuffle(pairs)))
        lines = b.rng.shuffle([f"{x} {r}" for x, r in ranks.items()])
        ranks_path = b.file("ranks", "\n".join(lines) + "\n")
        spec = {"elements": declared, "pairs": pairs, "ranks": ranks}
        b.cli(["witness", path, ranks_path, "--json"], spec, check="witness")
        lattices.append((path, lines))
    invalid = b.invalid_share()
    for _ in range(invalid // 4):
        path, lines = b.rng.choice(lattices)
        lines = list(lines)
        lines.insert(b.rng.below(len(lines) + 1), "stranger 0")
        b.rejected(["witness", path, b.file("badranks", "\n".join(lines) + "\n"), "--json"], 2)
    b.invalid_posets(commands, invalid - invalid // 4)
    declared, pairs = tiny_lattice()
    setup = {
        "argv": ["levels", b.file("tiny", poset_text(declared, pairs)), "--oracle", "--json"],
        "expect": levels_json(Order(declared, pairs), "primal"),
    }
    return b.files, b.manifest("corpus", seed, setup)


BUILDERS = {
    "chart": build_chart,
    "extend": build_extend,
    "rank": build_rank,
    "corpus": build_corpus,
}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed):
    return BUILDERS[workload](seed)
