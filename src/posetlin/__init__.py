"""Linearisation of finite posets by antichain levels.

The package turns an arbitrary finite poset into a linear order on level
classes (in two dual directions), decides when the two directions coincide
(the equal length chain condition), extends monotone and antitone mappings
over the linearised orders, and ranks interval-scored items through the
dominance order.
"""

from .errors import (
    ArityMismatchError,
    CycleError,
    DuplicateElementError,
    EmptyInputError,
    EmptyPosetError,
    LinearLatticeError,
    MissingTupleError,
    MixedArityError,
    NotALatticeError,
    OracleMismatchError,
    ParseError,
    PosetlinError,
    PosetMismatchError,
    RanksNotOrderPreservingError,
    TooLargeError,
    UnknownElementError,
)
from .formats import (
    RankGroup,
    Ranking,
    ScoredItem,
    emit_json,
    parse_mapping,
    parse_poset,
    parse_ranks,
    parse_scores,
    rank_items,
    render_poset,
)
from .levels import (
    DIRECTIONS,
    DUAL,
    PRIMAL,
    Linearisation,
    compute_levels,
    linearisations_equivalent,
    satisfies_elcc,
)
from .mappings import (
    ClassMapping,
    ImpossibilityWitness,
    MappingTable,
    extend,
    extend_all,
    impossibility_witness,
)
from .oracle import (
    MAX_BRUTE_RANK,
    SplitMix64,
    brute_extend,
    brute_levels,
    brute_order,
    brute_preserves,
    brute_rank,
    count_linear_extensions,
    enumerate_maximal_chains,
    random_poset,
)
from .poset import Poset, build_poset

__version__ = "0.1.0"

__all__ = [
    "ArityMismatchError",
    "ClassMapping",
    "CycleError",
    "DIRECTIONS",
    "DUAL",
    "DuplicateElementError",
    "EmptyInputError",
    "EmptyPosetError",
    "ImpossibilityWitness",
    "Linearisation",
    "LinearLatticeError",
    "MAX_BRUTE_RANK",
    "MappingTable",
    "MissingTupleError",
    "MixedArityError",
    "NotALatticeError",
    "OracleMismatchError",
    "PRIMAL",
    "ParseError",
    "Poset",
    "PosetMismatchError",
    "PosetlinError",
    "RankGroup",
    "Ranking",
    "RanksNotOrderPreservingError",
    "ScoredItem",
    "SplitMix64",
    "TooLargeError",
    "UnknownElementError",
    "brute_extend",
    "brute_levels",
    "brute_order",
    "brute_preserves",
    "brute_rank",
    "build_poset",
    "compute_levels",
    "count_linear_extensions",
    "emit_json",
    "enumerate_maximal_chains",
    "extend",
    "extend_all",
    "impossibility_witness",
    "linearisations_equivalent",
    "parse_mapping",
    "parse_poset",
    "parse_ranks",
    "parse_scores",
    "random_poset",
    "rank_items",
    "render_poset",
    "satisfies_elcc",
]
