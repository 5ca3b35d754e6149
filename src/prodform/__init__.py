"""Graph-structural product-form analysis of formal Markov chains."""
from __future__ import annotations

from .errors import (
    BUDGETS,
    InvalidArgumentError,
    NotStronglyConnectedError,
    NumericError,
    ProdformError,
    ResourceLimitError,
    check_budget,
)
from .factors import (
    CircuitStats,
    FactorExpr,
    Level,
    LEVEL_S,
    ProductExpr,
    RateAtom,
    Relation,
    SumExpr,
    chain_relations,
    circuit_stats,
    classify,
    evaluate,
    factor_to_json,
    format_factor,
    make_relation,
    product_of,
    relation_to_json,
    relations_to_json,
    sum_of,
)
from .graph_core import (
    DirectedGraph,
    NodeSet,
    ancestors_avoiding,
    connectivity_witness,
)
from .higher_level import (
    Analysis,
    BroadPair,
    CutHypergraph,
    HyperEdge,
    analyze,
    broad_cut_search,
    broad_pair_scan,
    higher_level_cut_graph,
    sps_relation,
)
from .models import (
    Family,
    FixtureBundle,
    ModelSpec,
    expected_fixtures,
    generate,
)
from .numeric import (
    RateAssignment,
    StationaryMeasure,
    WitnessPair,
    check,
    cut_equation_check,
    cut_residuals,
    enumerate_sourced_cuts,
    random_rates,
    rate_assignment,
    relation_residuals,
    stationary,
    theorem3_witness,
    verify_relation,
)
from .product_form import (
    ChainKind,
    CliqueAnalysis,
    Cut,
    CutGraph,
    FormalChain,
    clique_check,
    clique_territory_cut,
    compose_ps,
    cut_graph,
    cut_source,
    is_jaf,
    mutually_avoiding_ancestors,
    s_factors,
    s_relation,
    sourced_cut,
)

__all__ = [name for name in dir() if not name.startswith("_")]
