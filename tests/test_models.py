"""Model families: generators, parameter validation, and pinned fixture data."""
from __future__ import annotations

import pytest

from prodform import (
    Family,
    FormalChain,
    InvalidArgumentError,
    ModelSpec,
    clique_check,
    clique_territory_cut,
    cut_graph,
    evaluate,
    expected_fixtures,
    generate,
    higher_level_cut_graph,
    is_jaf,
    s_relation,
)
from prodform.graph_core import NodeSet
from prodform.models import _composed_closed_form, _msj_spine
from prodform.numeric import cut_equation_check, random_rates, stationary, verify_relation
from prodform.product_form import Cut

from util import complement


def _labels(c: FormalChain, s: NodeSet) -> frozenset[str]:
    return frozenset(c.graph.labels[v] for v in s)


def _by_labels(c: FormalChain, labels) -> NodeSet:
    return NodeSet.of([c.graph.index_of[lab] for lab in labels], c.graph.n)


def _edge_labels(c: FormalChain) -> set[tuple[str, str]]:
    return {(c.graph.labels[a], c.graph.labels[b]) for a, b in c.graph.edge_list}


def _c1_label_pairs(c: FormalChain) -> frozenset[frozenset[str]]:
    return frozenset(
        frozenset({c.graph.labels[a], c.graph.labels[b]}) for a, b in cut_graph(c).edges
    )


# ---- parameter handling ----


def test_defaults_fill_in():
    assert generate(ModelSpec(Family.BIRTH_DEATH)).graph.n == 6
    assert generate(ModelSpec(Family.BIRTH_DEATH, {"n": 4})).graph.n == 4


def test_unknown_parameter_rejected():
    with pytest.raises(InvalidArgumentError, match="unknown parameter"):
        generate(ModelSpec(Family.BIRTH_DEATH, {"m": 3}))


@pytest.mark.parametrize(
    "family,params",
    [
        (Family.BIRTH_DEATH, {"n": 1}),
        (Family.ONE_WAY_CYCLE, {"n": 1}),
        (Family.ONE_WAY_CYCLE_PLUS_EDGE, {"k": 2}),
        (Family.ONE_WAY_CYCLE_PLUS_EDGE, {"n": 4, "k": 5}),
        (Family.MSJ_SATURATED, {"servers": 1}),
        (Family.BATCH_V1, {"multiple": 1}),
        (Family.BATCH_V2, {"truncation": 0}),
        (Family.QBD_TOY, {"blocksize": 1}),
    ],
)
def test_parameter_constraints(family, params):
    with pytest.raises(InvalidArgumentError):
        generate(ModelSpec(family, params))


def test_generation_is_deterministic():
    a = generate(ModelSpec(Family.MSJ_SATURATED))
    b = generate(ModelSpec(Family.MSJ_SATURATED))
    assert a.graph.labels == b.graph.labels
    assert a.graph.edge_list == b.graph.edge_list


@pytest.mark.parametrize("family", list(Family))
def test_every_family_generates(family):
    c = generate(ModelSpec(family))
    assert c.graph.n >= 2  # FormalChain construction enforces strong connectivity


# ---- node and edge counts ----


@pytest.mark.parametrize(
    "family,params,nodes,edges",
    [
        (Family.BIRTH_DEATH, {}, 6, 10),
        (Family.ONE_WAY_CYCLE, {}, 5, 5),
        (Family.ONE_WAY_CYCLE_PLUS_EDGE, {}, 5, 6),
        (Family.TWO_WAY_CYCLE, {}, 5, 10),
        (Family.TREE, {}, 7, 12),
        (Family.QBD_TOY, {}, 9, 13),
        (Family.LADDER, {}, 7, 11),
        (Family.MSJ_SATURATED, {}, 21, 37),
        (Family.MSJ_SATURATED, {"c1": 2, "c2": 5, "servers": 12}, 13, 22),
        (Family.BATCH_V1, {}, 17, 29),
        (Family.BATCH_V2, {}, 13, 23),
        (Family.QUOTIENT_RING, {}, 9, 16),
    ],
)
def test_sizes(family, params, nodes, edges):
    c = generate(ModelSpec(family, params))
    assert c.graph.n == nodes
    assert c.graph.edge_count == edges


# ---- the saturated two-class service chain ----


def test_multiserver_chain_exact_edges():
    c = generate(ModelSpec(Family.MSJ_SATURATED))
    expected: set[tuple[str, str]] = set()
    for i in (1, 2, 4, 5, 7, 8, 9):
        expected.add((str(i), str(i - 1)))  # service completion
    for i in (3, 6, 10):
        expected.add((str(i), f"bar{i - 1}"))  # completion that reopens admission
        expected.add((f"bar{i - 1}", str(i)))
    for i in range(7):
        expected.add((str(i), f"bar{i}"))  # admission while room remains
        expected.add((f"bar{i}", str(i)))
    for i in (7, 8, 9):
        expected.add((f"bar{i}", str(i)))
    for j in (0, 1, 3, 4, 6, 7, 8):
        expected.add((f"bar{j}", f"bar{j + 1}"))  # consecutive admissions
    assert _edge_labels(c) == expected


def test_multiserver_first_level_graph():
    spec = ModelSpec(Family.MSJ_SATURATED)
    c = generate(spec)
    fx = expected_fixtures(spec)
    assert _c1_label_pairs(c) == fx.c1_edges
    assert len(fx.c1_edges) == 23
    cg = cut_graph(c)
    assert len(cg.components) == 1
    # Consecutive completion states in the saturated stretch share an ancestor
    # on the admission rail, so their pairs stay out of the first-level graph.
    for a, b in (("7", "8"), ("8", "9")):
        assert not is_jaf(c, _by_labels(c, [a]), _by_labels(c, [b]))


def test_multiserver_listed_relations_are_discovered():
    spec = ModelSpec(Family.MSJ_SATURATED)
    c = generate(spec)
    fx = expected_fixtures(spec)
    live = {}
    for a, b in cut_graph(c).edges:
        r = s_relation(c, a, b)
        live[(r.lhs_node, r.rhs_node)] = r
    for want in fx.relations:
        assert live[(want.lhs_node, want.rhs_node)] == want


@pytest.mark.parametrize("params", [{}, {"c1": 2, "c2": 5, "servers": 12}])
def test_multiserver_closed_form_matches_solver(params):
    spec = ModelSpec(Family.MSJ_SATURATED, params)
    c = generate(spec)
    fx = expected_fixtures(spec)
    assert fx.closed_form is not None
    ref_node = c.graph.index_of["0"]
    for seed in range(20):
        rates = random_rates(c, seed)
        pi = stationary(c, rates)
        for lab, expr in fx.closed_form:
            got = pi[ref_node] * evaluate(expr, rates.values)
            want = pi[c.graph.index_of[lab]]
            assert abs(got - want) / want <= 1e-9


def test_multiserver_closed_form_routes_agree():
    # The boundary-aware transcription and the factor-composition route must
    # produce identical expressions, not merely equal values.
    spec = ModelSpec(Family.MSJ_SATURATED)
    c = generate(spec)
    fx = expected_fixtures(spec)
    spine = _msj_spine(list(c.graph.labels))
    assert spine is not None
    assert fx.closed_form == _composed_closed_form(c, spine)


# ---- batch arrival chains ----


def test_batch_v1_fixture_matches_analysis():
    spec = ModelSpec(Family.BATCH_V1)
    c = generate(spec)
    fx = expected_fixtures(spec)
    assert _c1_label_pairs(c) == fx.c1_edges
    cg = cut_graph(c)
    assert tuple(_labels(c, m) for m in cg.components) == fx.c1_components
    live = {}
    for a, b in cg.edges:
        r = s_relation(c, a, b)
        live[(r.lhs_node, r.rhs_node)] = r
    for want in fx.relations:
        assert live[(want.lhs_node, want.rhs_node)] == want
    assert len(fx.relations) == 11 and len(live) == 14


def test_batch_v2_fixture_matches_analysis():
    spec = ModelSpec(Family.BATCH_V2)
    c = generate(spec)
    fx = expected_fixtures(spec)
    assert _c1_label_pairs(c) == fx.c1_edges
    cg = cut_graph(c)
    assert tuple(_labels(c, m) for m in cg.components) == fx.c1_components
    levels = higher_level_cut_graph(c, 3)
    for lv, want in zip(levels, (fx.level2_sources, fx.level3_sources)):
        got = [(_labels(c, h.cut.source_a), _labels(c, h.cut.source_b)) for h in lv.hyperedges]
        assert got == list(want)


def test_batch_v2_component_cut_equation():
    spec = ModelSpec(Family.BATCH_V2)
    c = generate(spec)
    fx = expected_fixtures(spec)
    (level2,) = higher_level_cut_graph(c, 2)
    (h,) = level2.hyperedges
    (side_a, side_b) = fx.cut_sides[0]
    assert _labels(c, h.cut.side_a) == side_a
    assert _labels(c, complement(h.cut.side_a)) == side_b
    for seed in range(20):
        rates = random_rates(c, seed)
        pi = stationary(c, rates)
        assert cut_equation_check(pi, rates, h.cut) <= 1e-10


# ---- simple families ----


def test_birth_death_fixture():
    spec = ModelSpec(Family.BIRTH_DEATH)
    c = generate(spec)
    fx = expected_fixtures(spec)
    assert _c1_label_pairs(c) == fx.c1_edges
    live = {}
    for a, b in cut_graph(c).edges:
        r = s_relation(c, a, b)
        live[(r.lhs_node, r.rhs_node)] = r
    assert len(live) == len(fx.relations)
    for want in fx.relations:
        assert live[(want.lhs_node, want.rhs_node)] == want


def test_one_way_cycle_first_level_graph_is_complete():
    spec = ModelSpec(Family.ONE_WAY_CYCLE)
    c = generate(spec)
    fx = expected_fixtures(spec)
    assert _c1_label_pairs(c) == fx.c1_edges
    assert len(fx.c1_edges) == 10
    assert len(cut_graph(c).components) == 1


def test_one_way_cycle_plus_edge_losses():
    spec = ModelSpec(Family.ONE_WAY_CYCLE_PLUS_EDGE)
    c = generate(spec)
    fx = expected_fixtures(spec)
    assert _c1_label_pairs(c) == fx.c1_edges
    for pair in fx.non_jaf_pairs:
        a, b = sorted(pair)
        assert not is_jaf(c, _by_labels(c, [a]), _by_labels(c, [b]))


def test_two_way_cycle_has_empty_first_level_graph():
    spec = ModelSpec(Family.TWO_WAY_CYCLE)
    c = generate(spec)
    assert cut_graph(c).edges == frozenset()
    assert expected_fixtures(spec).c1_edges == frozenset()


def test_tree_relations_are_single_atom():
    c = generate(ModelSpec(Family.TREE))
    cg = cut_graph(c)
    directed = {(a, b) for a, b in c.graph.edge_list}
    assert {frozenset(e) for e in cg.edges} == {frozenset(e) for e in directed}
    for a, b in cg.edges:
        r = s_relation(c, a, b)
        assert [(atom.src, atom.dst) for atom in r.lhs_factor.terms] == [(r.lhs_node, r.rhs_node)]
        assert [(atom.src, atom.dst) for atom in r.rhs_factor.terms] == [(r.rhs_node, r.lhs_node)]


def test_block_chain_boundary_pairs_are_free():
    c = generate(ModelSpec(Family.QBD_TOY))
    pairs = _c1_label_pairs(c)
    assert frozenset({"0.2", "1.0"}) in pairs
    assert frozenset({"1.2", "2.0"}) in pairs
    within = {
        frozenset({f"{j}.{p}", f"{j}.{q}"}) for j in range(3) for p in range(3) for q in range(3) if p < q
    }
    assert pairs == within | {frozenset({"0.2", "1.0"}), frozenset({"1.2", "2.0"})}


# ---- the ring with a five-member clique ----


def test_ring_clique_analysis_matches_fixture():
    spec = ModelSpec(Family.QUOTIENT_RING)
    c = generate(spec)
    fx = expected_fixtures(spec)
    analysis = clique_check(c, _by_labels(c, fx.clique_members))
    assert analysis is not None
    territories = tuple(
        (c.graph.labels[m], _labels(c, t)) for m, t in analysis.territories
    )
    assert territories == fx.clique_territories
    assert tuple(c.graph.labels[v] for v in analysis.cycle_order) == fx.clique_cycle
    cut = clique_territory_cut(c, analysis, c.graph.index_of["5"], c.graph.index_of["8"])
    assert isinstance(cut, Cut)
    assert _labels(c, cut.side_a) == fx.clique_cut[0]
    assert _labels(c, complement(cut.side_a)) == fx.clique_cut[1]
    for seed in range(20):
        rates = random_rates(c, seed)
        pi = stationary(c, rates)
        assert cut_equation_check(pi, rates, cut) <= 1e-10


def test_ring_clique_pairs_are_in_first_level_graph():
    spec = ModelSpec(Family.QUOTIENT_RING)
    c = generate(spec)
    fx = expected_fixtures(spec)
    pairs = _c1_label_pairs(c)
    members = sorted(fx.clique_members)
    for x in members:
        for y in members:
            if x < y:
                assert frozenset({x, y}) in pairs


# ---- fixture coverage ----


def test_fixtures_exist_only_for_pinned_configurations():
    assert expected_fixtures(ModelSpec(Family.TREE)) is None
    assert expected_fixtures(ModelSpec(Family.QBD_TOY)) is None
    assert expected_fixtures(ModelSpec(Family.BATCH_V1, {"truncation": 5})) is None
    assert expected_fixtures(ModelSpec(Family.BATCH_V2, {"truncation": 4})) is None
    assert expected_fixtures(ModelSpec(Family.ONE_WAY_CYCLE_PLUS_EDGE, {"n": 6})) is None
    bd = expected_fixtures(ModelSpec(Family.BIRTH_DEATH, {"n": 4}))
    assert bd is not None and len(bd.c1_edges) == 3


# Every family parameter at its default value.
_DEFAULTS = [
    (Family.BATCH_V1, "multiple", 3),
    (Family.BATCH_V1, "truncation", 8),
    (Family.BATCH_V2, "truncation", 6),
    (Family.BIRTH_DEATH, "n", 6),
    (Family.MSJ_SATURATED, "c1", 3),
    (Family.MSJ_SATURATED, "c2", 10),
    (Family.MSJ_SATURATED, "servers", 30),
    (Family.ONE_WAY_CYCLE, "n", 5),
    (Family.ONE_WAY_CYCLE_PLUS_EDGE, "n", 5),
    (Family.ONE_WAY_CYCLE_PLUS_EDGE, "k", 3),
    (Family.QBD_TOY, "blocks", 3),
    (Family.QBD_TOY, "blocksize", 3),
    (Family.TREE, "n", 7),
    (Family.TWO_WAY_CYCLE, "n", 5),
]


@pytest.mark.parametrize("family, key, value", _DEFAULTS, ids=lambda x: getattr(x, "value", str(x)))
def test_passing_a_default_gives_the_same_fixtures(family: Family, key: str, value: int):
    assert expected_fixtures(ModelSpec(family, {key: value})) == expected_fixtures(ModelSpec(family))


def test_batch_v2_fixture_names_its_level_two_sources():
    fx = expected_fixtures(ModelSpec(Family.BATCH_V2))
    assert frozenset({"1", "bar1"}) in fx.c1_edges
    assert fx.level2_sources == ((frozenset({"bar1", "bar2"}), frozenset({"2"})),)
    assert fx.broad_query[1] == frozenset({"2", "bar3"})


def test_fixture_relations_verify_numerically():
    for family in (Family.BIRTH_DEATH, Family.MSJ_SATURATED, Family.BATCH_V1):
        spec = ModelSpec(family)
        c = generate(spec)
        fx = expected_fixtures(spec)
        for seed in range(20):
            rates = random_rates(c, seed)
            pi = stationary(c, rates)
            for r in fx.relations:
                assert verify_relation(pi, rates, r) <= 1e-10
