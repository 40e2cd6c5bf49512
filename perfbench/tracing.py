"""Spans around posetlin's public functions, installed from outside the package.

``Tracer.install`` rebinds each listed function or method in every loaded
posetlin module that holds it, so nested calls become child spans.  Spans
(name, start, end, parent, request, size) stay in memory until
``Tracer.metrics`` turns them into per-layer totals.  Work counts are taken
from arguments and results inside a ``trace.count`` span, which is subtracted
from its parent like any child, so counting never lands in a layer's self
time.
"""

import functools
import statistics
import sys
import time

COUNT_SPAN = "trace.count"


def _count_poset(tracer, args, result, parent):
    tracer.add("poset.elements", len(result))
    tracer.add("poset.strict_pairs", sum(len(result.above(x)) for x in result.elements))
    tracer.add("poset.cover_pairs", sum(len(result.covers_above(x)) for x in result.elements))
    pairs = args[1] if len(args) > 1 else None
    if parent == "formats.rank_items" and isinstance(pairs, (list, tuple)):
        tracer.add("formats.dominance_pairs", len(pairs))
    return len(result)


def _count_rank_items(tracer, args, result, parent):
    items = args[0]
    if not isinstance(items, (list, tuple)):
        return 0
    tracer.add("formats.scored_items", len(items))
    tracer.add("formats.distinct_intervals", len({(it.lo, it.hi) for it in items}))
    return len(items)


def _count_levels(tracer, args, result, parent):
    tracer.add("levels.classes", result.num_classes)
    return 0


def _count_table(tracer, args, result, parent):
    tracer.add("mappings.table_entries", len(args[0].table))
    return 0


def _table_size(tracer, args, result, parent):
    return len(args[0].table)


def _count_extend(tracer, args, result, parent):
    tracer.add("mappings.class_entries", len(result.table))
    return 0


# (module, attribute path, span name, counter returning the call's size)
TARGETS = (
    ("posetlin.cli", "main", "cli.main", None),
    ("posetlin.formats", "parse_poset", "formats.parse_poset", None),
    ("posetlin.formats", "parse_mapping", "formats.parse_mapping", None),
    ("posetlin.formats", "parse_scores", "formats.parse_scores", None),
    ("posetlin.formats", "parse_ranks", "formats.parse_ranks", None),
    ("posetlin.formats", "rank_items", "formats.rank_items", _count_rank_items),
    ("posetlin.formats", "emit_json", "formats.emit_json", None),
    ("posetlin.poset", "build_poset", "poset.build_poset", _count_poset),
    ("posetlin.poset", "Poset.is_lattice", "poset.is_lattice", None),
    ("posetlin.poset", "Poset.sup", "poset.sup", None),
    ("posetlin.poset", "Poset.inf", "poset.inf", None),
    ("posetlin.levels", "compute_levels", "levels.compute_levels", _count_levels),
    ("posetlin.levels", "satisfies_elcc", "levels.satisfies_elcc", None),
    ("posetlin.levels", "linearisations_equivalent", "levels.linearisations_equivalent", None),
    ("posetlin.mappings", "MappingTable.__init__", "mappings.MappingTable", _count_table),
    ("posetlin.mappings", "MappingTable.is_monotone", "mappings.table_check", _table_size),
    ("posetlin.mappings", "MappingTable.is_antitone", "mappings.table_check", _table_size),
    ("posetlin.mappings", "extend", "mappings.extend", _count_extend),
    ("posetlin.mappings", "ClassMapping.is_monotone", "mappings.class_check", None),
    ("posetlin.mappings", "ClassMapping.is_antitone", "mappings.class_check", None),
    ("posetlin.mappings", "impossibility_witness", "mappings.impossibility_witness", None),
    ("posetlin.oracle", "brute_levels", "oracle.brute_levels", None),
    ("posetlin.oracle", "enumerate_maximal_chains", "oracle.enumerate_maximal_chains", None),
)

# reported self time -> span names it sums
SELF_TIMES = {
    "cli.main.self_ms": ("cli.main",),
    "formats.parse.self_ms": (
        "formats.parse_poset",
        "formats.parse_mapping",
        "formats.parse_scores",
        "formats.parse_ranks",
    ),
    "formats.rank_items.self_ms": ("formats.rank_items",),
    "formats.emit_json.self_ms": ("formats.emit_json",),
    "poset.build_poset.self_ms": ("poset.build_poset",),
    "poset.is_lattice.self_ms": ("poset.is_lattice",),
    "poset.sup_inf.self_ms": ("poset.sup", "poset.inf"),
    "levels.compute_levels.self_ms": ("levels.compute_levels",),
    "levels.satisfies_elcc.self_ms": ("levels.satisfies_elcc",),
    "levels.linearisations_equivalent.self_ms": ("levels.linearisations_equivalent",),
    "mappings.MappingTable.self_ms": ("mappings.MappingTable",),
    "mappings.table_check.self_ms": ("mappings.table_check",),
    "mappings.extend.self_ms": ("mappings.extend",),
    "mappings.class_check.self_ms": ("mappings.class_check",),
    "mappings.impossibility_witness.self_ms": ("mappings.impossibility_witness",),
    "oracle.brute_levels.self_ms": ("oracle.brute_levels",),
    "oracle.enumerate_maximal_chains.self_ms": ("oracle.enumerate_maximal_chains",),
}

COUNTS = (
    "poset.build_poset.calls",
    "poset.elements",
    "poset.strict_pairs",
    "poset.cover_pairs",
    "formats.scored_items",
    "formats.distinct_intervals",
    "formats.dominance_pairs",
    "levels.classes",
    "mappings.table_entries",
    "mappings.class_entries",
)

# per-call median durations by input size: a call of size s falls in bucket
# b when 3b/4 < s <= b.  A table check is is_monotone plus is_antitone on one
# table within one request.
BUCKETS = (
    ("formats.rank_items.ms.m", "formats.rank_items", (100, 200, 400)),
    ("poset.build_poset.ms.n", "poset.build_poset", (100, 200, 400)),
    ("mappings.table_check.ms.e", "mappings.table_check", (64, 512, 1000)),
)


def metric_names():
    names = list(SELF_TIMES) + list(COUNTS)
    for prefix, _, bounds in BUCKETS:
        names += [f"{prefix}{b}" for b in bounds]
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.request = None
        self._originals = []

    def add(self, name, amount):
        self.counts[name] += amount

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, None)
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request, 0)
            if counter is not None:
                count_start = clock()
                size = counter(self, args, result, parent_name)
                spans.append((COUNT_SPAN, count_start, clock(), parent, self.request, 0))
                spans[index] = (name, start, end, parent, self.request, size)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "posetlin"]
        for module_name, path, span, counter in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, counter)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def metrics(self):
        """Per-layer totals in ms, counts, and per-call medians by size."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_ms = {}
        calls = {}
        for index, (name, start, end, parent, request, size) in enumerate(self.spans):
            self_ms[name] = self_ms.get(name, 0.0) + (end - start - children[index]) * 1e3
            calls.setdefault(name, []).append((request, size, (end - start) * 1e3))
        out = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self_ms.get(name, 0.0) for name in names)
        out["poset.build_poset.calls"] = len(calls.get("poset.build_poset", ()))
        for name in COUNTS:
            if name != "poset.build_poset.calls":
                out[name] = self.counts[name]
        for prefix, name, bounds in BUCKETS:
            per_call = {}
            for i, (request, size, ms) in enumerate(calls.get(name, ())):
                key = (request, size) if name == "mappings.table_check" else i
                per_call[key] = (size, per_call.get(key, (size, 0.0))[1] + ms)
            for bound in bounds:
                samples = [ms for size, ms in per_call.values() if 3 * bound < 4 * size <= 4 * bound]
                out[f"{prefix}{bound}"] = statistics.median(samples) if samples else 0.0
        layers = {}
        for name, ms in self_ms.items():
            if name != COUNT_SPAN:
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + ms
        return out, layers
