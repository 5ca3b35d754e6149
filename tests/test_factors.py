"""Expression AST construction, classification, evaluation, circuit metrics, composition."""
from __future__ import annotations

import json
import math
import random

import pytest

from prodform import (
    CircuitStats,
    DirectedGraph,
    FormalChain,
    InvalidArgumentError,
    Level,
    LEVEL_S,
    NumericError,
    ProductExpr,
    RateAtom,
    SumExpr,
    analyze,
    ancestors_avoiding,
    circuit_stats,
    classify,
    cli,
    compose_ps,
    cut_graph,
    evaluate,
    factor_to_json,
    format_factor,
    make_relation,
    product_of,
    random_rates,
    relation_to_json,
    relations_to_json,
    s_factors,
    stationary,
    sum_of,
    verify_relation,
)
from prodform.graph_core import NodeSet

from util import atom_edges, birth_death, ladder7, one_way_cycle, random_strongly_connected, two_way_cycle

A01 = RateAtom(0, 1)
A10 = RateAtom(1, 0)
A12 = RateAtom(1, 2)
A21 = RateAtom(2, 1)


# ---- construction and normalization ----


def test_builders_flatten_nested_sums_and_products():
    s = sum_of([A01, sum_of([A10, sum_of([A12])])])
    assert s == SumExpr((A01, A10, A12))
    p = product_of([(A01, 1), (product_of([(A10, 1), (A12, -1)]), -1)])
    assert p == ProductExpr(((A01, 1), (A10, -1), (A12, 1)))


def test_singleton_sums_are_preserved():
    s = sum_of([A01])
    assert isinstance(s, SumExpr) and s.terms == (A01,)


def test_direct_constructors_reject_malformed_nodes():
    with pytest.raises(InvalidArgumentError):
        SumExpr(())
    with pytest.raises(InvalidArgumentError):
        ProductExpr(())
    with pytest.raises(InvalidArgumentError):
        SumExpr((SumExpr((A01,)),))
    with pytest.raises(InvalidArgumentError):
        ProductExpr(((ProductExpr(((A01, 1),)), 1),))
    with pytest.raises(InvalidArgumentError):
        ProductExpr(((A01, 2),))
    with pytest.raises(InvalidArgumentError):
        product_of([(A01, 0)])


def test_atom_edges_collects_every_leaf():
    e = sum_of([A01, product_of([(sum_of([A10, A12]), -1), (A21, 1)])])
    assert atom_edges(e) == {(0, 1), (1, 0), (1, 2), (2, 1)}


# ---- classification ----


def test_classify_levels_by_alternation_shape():
    assert classify(A01) == LEVEL_S
    assert classify(sum_of([A01, A10])) == LEVEL_S
    ps = product_of([(sum_of([A01]), 1), (sum_of([A10, A12]), 1)])
    assert classify(ps) == Level(2)
    sps = sum_of([A01, product_of([(A10, 1), (sum_of([A12, A21]), -1)])])
    assert classify(sps) == Level(3)
    psps = product_of([(sps, 1), (A01, 1)])
    assert classify(psps) == Level(4)
    assert classify(psps).name == "PSPS"
    deeper = sum_of([psps, A01])
    assert classify(deeper) == Level(5)
    assert classify(deeper).name == "HIGHER(5)"
    assert str(classify(product_of([(deeper, -1)]))) == "HIGHER(6)"


def test_classify_pads_rank_to_root_parity():
    # a product of bare atoms is still a product shape: rank 2, not 1
    assert classify(product_of([(A01, 1), (A12, 1)])) == Level(2)
    # a sum over products of sums alternates three times even if some layers are thin
    thin = sum_of([product_of([(sum_of([A01]), 1)])])
    assert classify(thin) == Level(3)


def test_level_guards_and_names():
    with pytest.raises(InvalidArgumentError):
        Level(0)
    assert Level(1).name == "S"
    assert Level(2).name == "PS"
    assert Level(3).name == "SPS"


# ---- evaluation ----


def test_evaluate_atom_sum_and_reciprocal_product():
    assert evaluate(A10, {(1, 0): 2.5}) == 2.5
    assert evaluate(sum_of([A01, A10]), {(0, 1): 1.0, (1, 0): 3.0}) == 4.0
    e = product_of([(sum_of([A01]), 1), (sum_of([A12, A21]), -1)])
    assert evaluate(e, {(0, 1): 6.0, (1, 2): 2.0, (2, 1): 1.0}) == pytest.approx(2.0)


def test_evaluate_missing_atom_is_rejected():
    with pytest.raises(InvalidArgumentError):
        evaluate(sum_of([A01, A10]), {(0, 1): 1.0})


def test_evaluate_rejects_nonpositive_results():
    with pytest.raises(NumericError):
        evaluate(A01, {(0, 1): 0.0})
    with pytest.raises(NumericError):
        evaluate(A01, {(0, 1): math.inf})


def test_evaluate_division_homomorphism():
    rng = random.Random(7)
    a = sum_of([A01, A10])
    b = sum_of([A12, A21])
    for _ in range(50):
        rates = {e: rng.uniform(0.1, 10.0) for e in [(0, 1), (1, 0), (1, 2), (2, 1)]}
        combined = evaluate(product_of([(a, 1), (b, -1)]), rates)
        assert combined == pytest.approx(evaluate(a, rates) / evaluate(b, rates), rel=1e-12)


# ---- circuit metrics ----


def test_circuit_stats_atom_and_sum():
    assert circuit_stats(A01) == CircuitStats(0, 0)
    assert circuit_stats(sum_of([A01, A10, A12])) == CircuitStats(1, 4)
    assert circuit_stats(sum_of([A01])) == CircuitStats(1, 2)


def test_circuit_stats_counts_reciprocal_gates():
    e = product_of([(sum_of([A01]), 1), (sum_of([A12, A21]), -1)])
    # product gate, two sum gates, three atoms, one reciprocal
    assert circuit_stats(e) == CircuitStats(3, 7)
    no_inverse = product_of([(sum_of([A01]), 1), (sum_of([A12, A21]), 1)])
    assert circuit_stats(no_inverse) == CircuitStats(2, 6)


# ---- relations and path composition ----


def test_make_relation_orients_by_node_index():
    r = make_relation(3, 1, A01, A10)
    assert (r.lhs_node, r.rhs_node) == (1, 3)
    assert (r.lhs_factor, r.rhs_factor) == (A10, A01)
    assert r.level == LEVEL_S
    with pytest.raises(InvalidArgumentError):
        make_relation(2, 2, A01, A10)


def test_relation_level_takes_the_wider_side():
    ps = product_of([(sum_of([A01]), 1), (sum_of([A12]), 1)])
    r = make_relation(0, 2, sum_of([A21]), ps)
    assert r.level == Level(2)


def test_compose_single_hop_equals_cut_factor_pair():
    c = FormalChain(birth_death(6))
    r = compose_ps([0, 1], c)
    f01, f10 = s_factors(c, 0, 1)
    assert (r.lhs_node, r.rhs_node) == (0, 1)
    assert (r.lhs_factor, r.rhs_factor) == (f01, f10)
    assert r.level == LEVEL_S


def test_compose_two_hops_on_a_reversible_chain():
    c = FormalChain(birth_death(6))
    r = compose_ps([0, 1, 2], c)
    assert r.level == Level(2)
    assert atom_edges(r.lhs_factor) == {(0, 1), (1, 2)}
    assert atom_edges(r.rhs_factor) == {(2, 1), (1, 0)}
    assert circuit_stats(r.lhs_factor) == CircuitStats(2, 5)
    assert circuit_stats(r.rhs_factor) == CircuitStats(2, 5)


def test_compose_rejects_bad_paths():
    c = FormalChain(birth_death(6))
    with pytest.raises(InvalidArgumentError):
        compose_ps([0], c)
    with pytest.raises(InvalidArgumentError):
        compose_ps([0, 1, 0], c)
    with pytest.raises(InvalidArgumentError):
        compose_ps([0, 2], c)  # not joint-ancestor free
    t = FormalChain(two_way_cycle(5))
    with pytest.raises(InvalidArgumentError):
        compose_ps([0, 1], t)


def test_compose_shortens_long_labels_in_its_error():
    long = "x" * 100_000
    g = DirectedGraph([long + "0", "1", long + "2"], [(0, 1), (1, 0), (1, 2), (2, 1)])
    with pytest.raises(InvalidArgumentError, match="share a joint ancestor") as info:
        compose_ps([0, 2], FormalChain(g))
    assert len(str(info.value)) < 200


def _c1_simple_paths(edges: frozenset[tuple[int, int]], n: int, max_hops: int) -> list[list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    paths: list[list[int]] = []

    def extend(path: list[int]) -> None:
        if len(path) >= 2:
            paths.append(list(path))
        if len(path) > max_hops:
            return
        for v in adj[path[-1]]:
            if v not in path:
                path.append(v)
                extend(path)
                path.pop()

    for start in range(n):
        extend([start])
    return paths


def _path_corpus(rng: random.Random) -> list[FormalChain]:
    chains = [FormalChain(birth_death(8)), FormalChain(ladder7())]
    chains += [
        FormalChain(random_strongly_connected(rng, rng.randint(4, 8), extra_edge_prob=0.12))
        for _ in range(25)
    ]
    return chains


def test_compose_matches_size_closed_form_on_paths():
    # size = 1 + d + sum of per-hop widths, where each width is the number of
    # edges from the hop's source into the far side of its cut
    rng = random.Random(2024)
    multi_hop = 0
    for c in _path_corpus(rng):
        g = c.graph
        cg = cut_graph(c)
        for path in _c1_simple_paths(cg.edges, g.n, max_hops=3):
            if len(path) < 3:
                continue
            r = compose_ps(path, c)
            assert r.level == Level(2)
            d = len(path) - 1
            max_out = max(len(g.out_adj[v]) for v in path)
            for lhs_first in (path, path[::-1]):
                widths = []
                for a, b in zip(lhs_first, lhs_first[1:]):
                    far = ancestors_avoiding(g, NodeSet.of([b], g.n), NodeSet.of([a], g.n))
                    widths.append(sum(1 for k in g.out_adj[a] if k in far))
                factor = r.lhs_factor if lhs_first[0] == r.lhs_node else r.rhs_factor
                stats = circuit_stats(factor)
                assert stats.depth == 2
                assert stats.size == 1 + d + sum(widths)
                assert stats.size <= 1 + d + d * max_out
            multi_hop += 1
    assert multi_hop >= 50


def test_compose_classification_over_paths():
    rng = random.Random(99)
    seen_ps = 0
    for c in _path_corpus(rng):
        cg = cut_graph(c)
        composed = []
        for a, b in sorted(cg.edges):
            composed.append(compose_ps([a, b], c))
            assert composed[-1].level == LEVEL_S
        for path in _c1_simple_paths(cg.edges, c.graph.n, max_hops=2):
            if len(path) >= 3:
                composed.append(compose_ps(path, c))
                assert composed[-1].level == Level(2)
                seen_ps += 1
        # Every composed relation holds numerically, not only in shape.
        for rates in (random_rates(c, 0), random_rates(c, 1)):
            pi = stationary(c, rates)
            assert all(verify_relation(pi, rates, r) <= 1e-9 for r in composed)
    assert seen_ps >= 20


# ---- serialization and rendering ----


def test_factor_json_shapes():
    labels = ["x", "y", "z"]
    assert factor_to_json(RateAtom(0, 2), labels) == {"atom": {"from": "x", "to": "z"}}
    assert factor_to_json(sum_of([RateAtom(0, 1)]), labels) == {
        "sum": [{"atom": {"from": "x", "to": "y"}}]
    }
    e = product_of([(RateAtom(1, 2), -1)])
    assert factor_to_json(e, labels) == {
        "product": [{"expr": {"atom": {"from": "y", "to": "z"}}, "exp": -1}]
    }


def test_format_factor_rendering():
    labels = ["0", "1", "2"]
    assert format_factor(RateAtom(1, 0), labels) == "q(1,0)"
    assert format_factor(sum_of([RateAtom(1, 0), RateAtom(1, 2)]), labels) == "(q(1,0) + q(1,2))"
    e = product_of([(sum_of([RateAtom(1, 0)]), 1), (sum_of([RateAtom(0, 1), RateAtom(2, 1)]), -1)])
    assert format_factor(e, labels) == "q(1,0)*(q(0,1) + q(2,1))^-1"


def test_relation_json_reports_combined_circuit():
    c = FormalChain(birth_death(6))
    r = compose_ps([0, 1, 2], c)
    doc = relation_to_json(r, c.graph.labels)
    assert doc["lhs"] == "0" and doc["rhs"] == "2"
    assert doc["level"] == "PS"
    assert doc["circuit"] == {"depth": 2, "size": 10}
    assert doc["lhs_factor"]["product"][0]["expr"] == {
        "sum": [{"atom": {"from": "0", "to": "1"}}]
    }


def _inlined(factors: list[dict], row: dict) -> dict:
    """A table row with its factor indices replaced by the table entries."""
    return {**row, "lhs_factor": factors[row["lhs_factor"]], "rhs_factor": factors[row["rhs_factor"]]}


def test_factor_table_holds_each_distinct_factor_once_in_first_use_order():
    c = FormalChain(one_way_cycle(60))
    labels = c.graph.labels
    relations = analyze(c, max_level=2).relations
    factors, rows = relations_to_json(relations, labels)
    # Keyed by identity: a dict keeps the order in which its keys were first inserted.
    used = list({id(e): e for r in relations for e in (r.lhs_factor, r.rhs_factor)}.values())
    assert (len(relations), len(used)) == (1770, 60)
    assert factors == [factor_to_json(e, labels) for e in used]
    for r, row in zip(relations, rows):
        assert used[row["lhs_factor"]] is r.lhs_factor and used[row["rhs_factor"]] is r.rhs_factor
        assert relation_to_json(r, labels) == _inlined(factors, row)


def test_factor_table_tells_equal_factors_apart_by_identity():
    labels = ["a", "b"]
    first = make_relation(0, 1, sum_of([A01]), sum_of([A10]))
    second = make_relation(0, 1, sum_of([A01]), first.rhs_factor)
    factors, rows = relations_to_json([first, second], labels)
    held = (first.lhs_factor, first.rhs_factor, second.lhs_factor)
    assert factors == [factor_to_json(e, labels) for e in held]
    assert [(row["lhs_factor"], row["rhs_factor"]) for row in rows] == [(0, 1), (2, 1)]
    assert [relation_to_json(r, labels) for r in (first, second)] == [_inlined(factors, row) for row in rows]


def test_a_chain_without_relations_writes_an_empty_factor_table(tmp_path):
    path, out = str(tmp_path / "twoway.json"), str(tmp_path / "report.json")
    assert cli.main(["generate", "twoway", "--out", path]) == cli.EXIT_OK
    assert cli.main(["analyze", path, "--max-level", "6", "--out", out]) == cli.EXIT_OK
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    assert list(report)[4:7] == ["max_level", "factors", "first_level"]
    assert report["factors"] == [] and report["first_level"]["relations"] == []


def test_compose_on_ladder_matches_published_cut_factors():
    c = FormalChain(ladder7())
    g = c.graph
    i1, i4 = g.index_of["1"], g.index_of["4"]
    r = compose_ps([i4, i1], c)
    assert (r.lhs_node, r.rhs_node) == (min(i1, i4), max(i1, i4))
    f41, f14 = s_factors(c, i4, i1)
    assert atom_edges(f41) == {(i4, g.index_of["1"]), (i4, g.index_of["5"])}
    assert atom_edges(f14) == {(i1, g.index_of["0"])}
