"""The six result records: pinned reprs, immutability, equality and tuple form."""

import pytest

from posetlin import (
    DUAL,
    PRIMAL,
    ClassMapping,
    ImpossibilityWitness,
    Linearisation,
    MappingTable,
    RankGroup,
    Ranking,
    ScoredItem,
    build_poset,
    compute_levels,
    extend,
    impossibility_witness,
    parse_scores,
    rank_items,
)


def _records():
    chain = build_poset(["a", "b"], [("a", "b")])
    lin = compute_levels(chain, PRIMAL)
    table = MappingTable(chain, 1, chain, {("a",): "a", ("b",): "b"})
    diamond = build_poset(
        ["bot", "a", "b", "top"], [("bot", "a"), ("a", "top"), ("bot", "b"), ("b", "top")]
    )
    items = parse_scores("p 0.9 1.0\nq 1/5 2e-1\n")
    ranking = rank_items(items, 1)
    return {
        Linearisation: lin,
        ClassMapping: extend(table, lin, compute_levels(chain, DUAL), "over"),
        ImpossibilityWitness: impossibility_witness(diamond, {"bot": 0, "a": 1, "b": 1, "top": 2}),
        ScoredItem: items[1],
        RankGroup: ranking.groups[0],
        Ranking: ranking,
    }


# (record type, field names in order, repr text); these reprs hold no set,
# so the text does not depend on the hash seed
PINNED = [
    (
        Linearisation,
        ("source", "direction", "layer", "num_classes"),
        "Linearisation(source=Poset(2 elements, 1 strict pairs), direction='primal', "
        "layer=(1, 0), num_classes=2)",
    ),
    (
        ClassMapping,
        ("domain_lin", "codomain_lin", "arity", "mode", "ranks"),
        "ClassMapping(domain_lin=Linearisation(source=Poset(2 elements, 1 strict pairs), "
        "direction='primal', layer=(1, 0), num_classes=2), "
        "codomain_lin=Linearisation(source=Poset(2 elements, 1 strict pairs), "
        "direction='dual', layer=(0, 1), num_classes=2), arity=1, mode='over', ranks=(0, 1))",
    ),
    (
        ImpossibilityWitness,
        ("pair", "case", "witness_map", "ranks", "violation"),
        "ImpossibilityWitness(pair=('a', 'b'), case='collapsed', "
        "witness_map=MappingTable(arity=1, 4 entries), "
        "ranks={'bot': 0, 'a': 1, 'b': 1, 'top': 2}, "
        "violation='rank(a) = rank(b) = 1, yet for f(x) = sup(x, a) rank(f(a)) = 1 "
        "differs from rank(f(b)) = 2: the induced class mapping is ill-defined')",
    ),
    (
        ScoredItem,
        ("item", "lo_text", "hi_text", "lo_ratio", "hi_ratio"),
        "ScoredItem(item='q', lo_text='1/5', hi_text='2e-1', lo_ratio=(1, 5), hi_ratio=(1, 5))",
    ),
    (
        RankGroup,
        ("items", "intervals"),
        "RankGroup(items=('p',), intervals=(('0.9', '1.0'),))",
    ),
    (
        Ranking,
        ("direction", "k", "groups"),
        "Ranking(direction='primal', k=1, "
        "groups=(RankGroup(items=('p',), intervals=(('0.9', '1.0'),)),))",
    ),
]

IDS = [kind.__name__ for kind, _, _ in PINNED]


@pytest.mark.parametrize("kind, fields, text", PINNED, ids=IDS)
def test_repr_is_pinned(kind, fields, text):
    assert repr(_records()[kind]) == text


@pytest.mark.parametrize("kind, fields, text", PINNED, ids=IDS)
def test_fields_cannot_be_assigned(kind, fields, text):
    record = _records()[kind]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("kind, fields, text", PINNED, ids=IDS)
def test_equal_fields_give_equal_records(kind, fields, text):
    record = _records()[kind]
    values = [getattr(record, name) for name in fields]
    assert kind(*values) == record
    assert kind(**dict(zip(fields, values))) == record
    assert _records()[kind] == record  # a second, independent build


@pytest.mark.parametrize("kind, fields, text", PINNED, ids=IDS)
def test_records_are_tuples_of_their_fields(kind, fields, text):
    record = _records()[kind]
    values = tuple(getattr(record, name) for name in fields)
    assert tuple(record) == values
    assert record == values
    assert record[0] is values[0]
